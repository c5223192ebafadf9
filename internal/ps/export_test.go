package ps

// Version returns the number of applied updates.
func (s *Server) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}
