module hamster/benchmark

go 1.22

require hamster v0.0.0

replace hamster => ../
