package vclock

import "sync"

// Queue is the fixture's park primitive, allowed by name.
type Queue struct {
	sync.Mutex
	cond sync.Cond
}
