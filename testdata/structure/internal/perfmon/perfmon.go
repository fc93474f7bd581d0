// Package perfmon is a fixture for TestStructure: New allocates an event
// ring (rings_in_enable).
package perfmon

type Event struct{}

type Recorder struct{ buf []Event }

func (r *Recorder) Enable() { r.buf = make([]Event, 8) }

func (r *Recorder) Enabled() bool { return r.buf != nil }

func New() *Recorder {
	return &Recorder{buf: make([]Event, 8)}
}
