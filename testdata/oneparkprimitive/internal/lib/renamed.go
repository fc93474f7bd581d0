package lib

import s "sync"

var renamed = s.NewCond(new(s.Mutex))
