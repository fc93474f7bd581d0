// Package cluster implements HAMSTER's unified startup configuration
// (§3.3): one node-configuration file format shared by all base
// architectures, replacing the per-system mechanisms (JiaJia's internal
// remote job start, the SCI-VM's script-based startup, OS process control
// on multiprocessors).
//
// The format is line-oriented and has four keys:
//
//	# comment
//	platform  = software-dsm | hybrid-dsm | smp   (platform.ParseKind's names)
//	messaging = coalesced | separate
//	threaded  = true | false
//	node      = <name> [<address>]
//
// Repeating "node" lines enumerate the cluster; on SMP platforms each node
// line stands for one CPU. The file describes what a startup file
// describes — which machines, which base architecture, which messaging
// stack, which task model — and parses into a core.Config
// (RuntimeConfig), the one cluster description; what an experiment varies
// beyond that (engine, topology, aggregation, checkpointing) is set on the
// core.Config by the front end that runs the experiment. Every key is
// held to a committed measurement by TestSurfaceEvidence.
package cluster

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hamster/internal/core"
	"hamster/internal/machine"
	"hamster/internal/platform"
)

// NodeSpec names one node of the cluster.
type NodeSpec struct {
	Name    string
	Address string
}

// FileConfig is a parsed configuration file.
type FileConfig struct {
	Platform  platform.Kind
	Messaging machine.MessagingMode
	Threaded  bool
	Nodes     []NodeSpec
}

// Default returns the configuration used when a key is absent: a
// software-DSM cluster with coalesced messaging.
func Default() FileConfig {
	return FileConfig{Platform: platform.SWDSM, Messaging: machine.Coalesced}
}

// Parse reads a configuration file.
func Parse(r io.Reader) (FileConfig, error) {
	cfg := Default()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, found := strings.Cut(line, "=")
		if !found {
			return cfg, fmt.Errorf("cluster: line %d: expected key = value, got %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		set, ok := keys[key]
		if !ok {
			return cfg, fmt.Errorf("cluster: line %d: unknown key %q", lineNo, key)
		}
		if err := set(&cfg, strings.TrimSpace(value)); err != nil {
			return cfg, fmt.Errorf("cluster: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return cfg, err
	}
	if len(cfg.Nodes) == 0 {
		return cfg, fmt.Errorf("cluster: no node lines in configuration")
	}
	return cfg, nil
}

// keys is the file format: one setter per key.
var keys = map[string]func(c *FileConfig, value string) error{
	"platform": func(c *FileConfig, value string) error {
		kind, err := platform.ParseKind(value)
		if err != nil {
			return err
		}
		c.Platform = kind
		return nil
	},
	"messaging": func(c *FileConfig, value string) error {
		switch value {
		case "coalesced", "integrated":
			c.Messaging = machine.Coalesced
		case "separate", "native":
			c.Messaging = machine.Separate
		default:
			return fmt.Errorf("unknown messaging mode %q", value)
		}
		return nil
	},
	"threaded": func(c *FileConfig, value string) error {
		b, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("bad threaded value %q", value)
		}
		c.Threaded = b
		return nil
	},
	"node": func(c *FileConfig, value string) error {
		fields := strings.Fields(value)
		if len(fields) == 0 {
			return fmt.Errorf("empty node line")
		}
		spec := NodeSpec{Name: fields[0]}
		if len(fields) > 1 {
			spec.Address = fields[1]
		}
		c.Nodes = append(c.Nodes, spec)
		return nil
	},
}

// RuntimeConfig converts a parsed file into a core configuration — the
// single switch point that retargets an unmodified binary (§5.4).
func (c FileConfig) RuntimeConfig() core.Config {
	return core.Config{
		Platform:  c.Platform,
		Nodes:     len(c.Nodes),
		Messaging: c.Messaging,
		Threaded:  c.Threaded,
	}
}
