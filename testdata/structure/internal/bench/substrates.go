package bench

import "hamster/internal/ivy"

var ablation = ivy.New(4) // allowed: the constructors' one file
