// Package pagestore is a fixture for TestStructure: the page list may make
// page buffers (one_page_allocator).
package pagestore

import "hamster/internal/memsim"

func GetPage() []byte { return make([]byte, memsim.PageSize) }
