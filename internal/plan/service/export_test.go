package service

import "cynthia/internal/cloud"

// Catalog returns the catalog requests without their own are planned on.
func (s *Service) Catalog() *cloud.Catalog { return s.catalog }
