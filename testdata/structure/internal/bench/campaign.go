package bench

import (
	s "hamster/internal/swdsm"
)

// build is a second engine builder, under a renamed import.
func build() any {
	return s.New(4)
}
