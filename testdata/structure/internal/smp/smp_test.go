package smp

import "hamster/internal/amsg"

type wire struct{ *amsg.Layer }
