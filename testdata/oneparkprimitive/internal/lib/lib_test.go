package lib

import "sync"

type testOnly struct{ cond sync.Cond }
