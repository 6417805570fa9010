// Engine selection and the batched replay API.

package sim

import (
	"fmt"

	"p4all/internal/sem"
)

// Engine selects a Pipeline's execution strategy.
type Engine uint8

const (
	// EngineVM (the default) lowers the layout to a bytecode program
	// executed by a switch-dispatch VM, with struct-of-arrays batched
	// replay (see vm.go); programs the lowering cannot compile fall
	// back to the interpreter (see Pipeline.Fallback).
	EngineVM Engine = iota
	// EngineInterp forces the reference AST interpreter.
	EngineInterp
)

func (e Engine) String() string {
	if e == EngineInterp {
		return "interp"
	}
	return "vm"
}

// ParseEngine maps the CLI spelling of an engine to its value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "vm":
		return EngineVM, nil
	case "interp":
		return EngineInterp, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want vm or interp)", s)
}

// EngineName reports which engine actually executes this pipeline:
// "vm", or "interp" (requested, or fallen back to).
func (p *Pipeline) EngineName() string {
	if p.vm != nil {
		return "vm"
	}
	return "interp"
}

// Fallback returns why the VM lowering fell back to the interpreter;
// nil when the VM is active or the interpreter was requested
// explicitly.
func (p *Pipeline) Fallback() error { return p.vmErr }

// View is a read-only view of one processed packet's output fields.
// Inside a Replay sink on the VM it reads one lane of the reused batch
// frame — no allocation — and is only valid until the sink returns; do
// not retain it. Fields the program does not touch are read straight
// from the caller's packet, so a sink must not mutate that packet while
// its view is live.
type View struct {
	vm   *vmProg
	vf   *vmFrame
	lane int
	m    map[string]uint64
}

// Get reads one flattened output field ("query.key", "cms_meta.min",
// "meta.count@2" — see Key). It reports false for fields the packet
// left unset, which Process would omit from its map.
func (v View) Get(name string) (uint64, bool) {
	if v.vm == nil {
		val, ok := v.m[name]
		return val, ok
	}
	if s, ok := v.vm.fieldSlot[name]; ok {
		if i := int(s)*vmLanes + v.lane; v.vf.stamp[i] == v.vf.gen {
			return v.vf.vals[i], true
		}
	}
	val, ok := v.vf.pkt[v.lane].Get(name)
	return val & v.vm.p.inputMask(name), ok
}

// Map materializes the view as the map Process would have returned
// (allocates; hot loops should use Get with precomputed keys).
func (v View) Map() map[string]uint64 {
	if v.vm != nil {
		return v.vm.output(v.vf, v.lane)
	}
	return v.m
}

// Replay pushes pkts through the pipeline in order, handing each
// packet's outputs to sink (nil to discard). On the VM the frame and
// View are reused across packets, so a steady-state replay performs
// zero allocations, and packets run in struct-of-arrays batches of up
// to vmLanes: sinks still fire per packet, in order, after the packet's
// batch executes — a sink reading register state through the pipeline
// observes it as of the end of that batch. The VM reads pkts[i] and
// never writes it; a sink must not mutate pkts[i] while its View is
// live. A processing error aborts the replay with the packet index
// attached, after the sinks of every packet before it have fired; an
// error from sink aborts it and is returned unwrapped.
func (p *Pipeline) Replay(pkts []Packet, sink func(i int, v View) error) error {
	if p.vm != nil {
		defer clear(p.vmf.pkt[:]) // never pin the caller's packets
		v := View{vm: p.vm, vf: &p.vmf}
		for off := 0; off < len(pkts); off += vmLanes {
			end := off + vmLanes
			if end > len(pkts) {
				end = len(pkts)
			}
			done, err := p.vm.runBatch(&p.vmf, pkts[off:end])
			if sink != nil {
				for l := 0; l < done; l++ {
					v.lane = l
					if err := sink(off+l, v); err != nil {
						return err
					}
				}
			}
			if err != nil {
				return fmt.Errorf("sim: packet %d: %w", off+done, err)
			}
		}
		return nil
	}
	for i := range pkts {
		out, err := p.Process(pkts[i])
		if err != nil {
			return fmt.Errorf("sim: packet %d: %w", i, err)
		}
		if sink != nil {
			if err := sink(i, View{m: out}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Key flattens a field instance to its output key: the field name
// itself for scalars (idx < 0), "field@idx" for elastic instances.
// Precompute keys outside hot loops; Key allocates the string.
func Key(field string, idx int) string {
	if idx < 0 {
		return field
	}
	return sem.InstKey(field, uint64(idx))
}
