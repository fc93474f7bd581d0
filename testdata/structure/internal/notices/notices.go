// Package notices is a fixture for TestStructure: it has two collect
// functions (one_notice_collect).
package notices

type EpochExchange struct{ pages []int }

func (e *EpochExchange) CollectOthers(dst []int) []int { return append(dst, e.pages...) }

func (e *EpochExchange) CollectAll() []int { return e.pages }
