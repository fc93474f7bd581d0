package lib

import "hamster/internal/memsim"

func page() []byte {
	return make([]byte, memsim.PageSize)
}
