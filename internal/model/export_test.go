package model

// OutputShape returns the network's final activation shape.
func (n *Network) OutputShape() (Shape, error) {
	stats, err := n.Analyze()
	if err != nil {
		return Shape{}, err
	}
	if len(stats) == 0 {
		return n.Input, nil
	}
	return stats[len(stats)-1].Out, nil
}
