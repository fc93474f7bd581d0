package lib

import (
	"sync"

	"hamster/internal/memsim"
)

var pages = sync.Pool{New: func() any { return new([memsim.PageSize]byte) }}

type testOnly struct{ cond sync.Cond }
