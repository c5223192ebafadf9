package cloud

// Cost is the price of running nInstances of type t for the given
// duration in seconds, billed per second.
func Cost(t InstanceType, nInstances int, seconds float64) float64 {
	if nInstances < 0 || seconds < 0 {
		return 0
	}
	return float64(nInstances) * seconds / 3600 * t.PricePerHour
}
