package difftest

import (
	"sync"
	"testing"

	"p4all/internal/core"
	"p4all/internal/elastic"
	"p4all/internal/pisa"
	"p4all/internal/sim"
	"p4all/internal/structures"
)

// fuzzBudget is the per-stage memory every fuzz compile uses. All
// compiles happen eagerly in the fuzz target body — before f.Fuzz —
// so each worker process pays the ILP solves once at startup. Solving
// inside the fuzzed function is a trap: NetCache's solve takes several
// seconds under coverage instrumentation, which trips the fuzz
// engine's per-input hang detector and kills the worker.
const fuzzBudget = pisa.Mb

var fuzzCompiles struct {
	sync.Mutex
	byApp map[string]*core.Result
}

// fuzzCompileAll compiles the suite, and any further programs named
// (cached process-wide so the fuzz targets — and the engine
// equivalence test — share one set of solves in plain `go test` mode).
func fuzzCompileAll(f testing.TB, more ...AppSpec) map[string]*core.Result {
	f.Helper()
	fuzzCompiles.Lock()
	defer fuzzCompiles.Unlock()
	if fuzzCompiles.byApp == nil {
		fuzzCompiles.byApp = make(map[string]*core.Result)
	}
	for _, spec := range append(Specs(), more...) {
		if _, ok := fuzzCompiles.byApp[spec.Name]; ok {
			continue
		}
		res, err := core.Compile(spec.Source, pisa.EvalTarget(fuzzBudget), baseSolver())
		if err != nil {
			f.Fatalf("compile %s: %v", spec.Name, err)
		}
		fuzzCompiles.byApp[spec.Name] = res
	}
	return fuzzCompiles.byApp
}

// sparseMetaKey names, per program, a metadata field a sparse stream
// also sends as a packet key: the program writes it, so the output
// must show the written value where the write happened and the
// packet's value where it did not.
var sparseMetaKey = map[string]string{
	"NetCache":                "kv_meta.value",
	"SketchLearn":             "lv0_meta.min",
	"Precision":               "pr_meta.recirculate",
	"ConQuest":                "cq_meta.estimate",
	"HashPipe":                "hpc_meta.carried",
	"FlowRadar":               "frd_meta.is_new",
	"StandaloneCMS":           "cms_meta.min",
	"StandaloneBloom":         "bf_meta.hits",
	"StandaloneKVS":           "kv_meta.value",
	"StandaloneHashTable":     "ht_meta.matched",
	"StandaloneCountingTable": "ct_meta.total",
	"StandaloneIDTable":       "idt_meta.state",
}

// streamFromBytes turns raw fuzz input into a packet stream: one
// packet per byte, key = byte value (a deliberately tiny domain so
// collisions are dense), secondary fields derived from the shared
// hash so they stay deterministic per input. A sparse stream lets the
// byte's bits shape the packet too: bit j drops non-key field j, bit 6
// adds an undeclared stray key and bit 7 a key named after one of the
// app's metadata fields.
func streamFromBytes(spec AppSpec, data []byte, sparse bool) []sim.Packet {
	if len(data) == 0 {
		data = []byte{0}
	}
	if len(data) > 256 {
		data = data[:256]
	}
	out := make([]sim.Packet, len(data))
	for i, b := range data {
		pkt := make(sim.Packet, 0, len(spec.Fields)+2)
		for j, f := range spec.Fields {
			switch {
			case f.Key:
				pkt = append(pkt, sim.Field{Name: f.Name, Value: uint64(b)})
			case !sparse || b>>j&1 == 0:
				pkt = append(pkt, sim.Field{Name: f.Name, Value: structures.Hash(uint64(i), uint64(b)) & widthMask(f.Width)})
			}
		}
		if sparse && b&0x40 != 0 {
			pkt = append(pkt, sim.Field{Name: "fuzz.stray", Value: uint64(i)})
		}
		if sparse && b&0x80 != 0 {
			pkt = append(pkt, sim.Field{Name: sparseMetaKey[spec.Name], Value: structures.Hash(uint64(b), uint64(i))})
		}
		out[i] = pkt
	}
	return out
}

func fuzzSpec(appIdx byte) AppSpec {
	specs := Specs()
	return specs[int(appIdx)%len(specs)]
}

// FuzzSimVsGolden replays arbitrary byte-derived streams against the
// golden models (oracle 2 under coverage guidance), and cross-checks
// the two execution engines against each other on the same stream
// (oracle 3), so every corpus entry also fuzzes the VM lowering.
func FuzzSimVsGolden(f *testing.F) {
	compiled := fuzzCompileAll(f)
	f.Add(byte(0), []byte("netcache-seed"))
	f.Add(byte(1), []byte("sketchlearn-seed"))
	f.Add(byte(2), []byte("precision-seed"))
	f.Add(byte(3), []byte("\x00\x00\x07\x07\x07\xff\xff"))
	f.Fuzz(func(t *testing.T, appIdx byte, data []byte) {
		spec := fuzzSpec(appIdx)
		res := compiled[spec.Name]
		stream := streamFromBytes(spec, data, false)
		div, err := replayGolden(spec, res, stream, int64(appIdx))
		if err != nil {
			t.Fatalf("%s: replay error: %v", spec.Name, err)
		}
		if div != nil {
			t.Fatalf("%s diverged from golden: %s\n%s", spec.Name, div, formatStream(stream))
		}
		fuzzEngines(t, spec, res, stream, int64(appIdx))
	})
}

// fuzzEngines fails the input unless the engine oracle passes on it.
func fuzzEngines(t *testing.T, spec AppSpec, res *core.Result, stream []sim.Packet, seed int64) {
	t.Helper()
	div, detail, err := replayEngines(spec, res, stream, seed)
	if err != nil {
		t.Fatalf("%s: engine replay error: %v", spec.Name, err)
	}
	if div != nil {
		t.Fatalf("%s: vm diverged from interp: %s\n%s", spec.Name, div, formatStream(stream))
	}
	if detail != "" {
		t.Fatalf("%s: engine oracle: %s\n%s", spec.Name, detail, formatStream(stream))
	}
}

// FuzzVMVsInterp runs the engine oracle alone: the bytecode VM's
// batched struct-of-arrays replay against the reference interpreter, on
// byte-derived streams with dense key collisions. Skipping the golden
// model keeps each input cheap, so coverage guidance explores the VM's
// segment boundaries (partial batches, guard jumps across serial/vector
// splits) faster than FuzzSimVsGolden can. Outputs, register end-state,
// and Stats must all agree; a lowering fallback fails. The low seven
// bits of appIdx pick the program: the suite first, so an appIdx below
// 4 keeps its app, then engineSpecs, whose steps reach opStep (sem's
// walker on the frame) and not only the superinstructions. An appIdx
// with its top bit set replays a sparse stream (streamFromBytes):
// absent fields, stray keys and meta-named keys are what the VM reads
// from the caller's packet instead of its slots.
func FuzzVMVsInterp(f *testing.F) {
	compiled := fuzzCompileAll(f, engineSpecs()...)
	specs := append(Specs(), engineSpecs()...)
	f.Add(byte(0), []byte("vm-netcache-seed"))
	f.Add(byte(1), []byte("vm-sketchlearn-seed"))
	f.Add(byte(2), []byte("\x00\x01\x02\x03\xfe\xff"))
	f.Add(byte(3), []byte("vm-conquest-seed"))
	f.Add(byte(0x83), []byte("\x00\x01\x02\x03\x40\x80\xc5\xff"))
	f.Add(byte(4), []byte("vm-hashpipe-seed"))
	f.Add(byte(5), []byte("\x00\x00\x01\x01\x02\x02\x03\x03"))
	f.Add(byte(7), []byte("vm-bloom-seed"))
	f.Add(byte(0x8a), []byte("\x05\x05\x45\x85\xc5\x05\x06"))
	f.Fuzz(func(t *testing.T, appIdx byte, data []byte) {
		spec := specs[int(appIdx&0x7f)%len(specs)]
		stream := streamFromBytes(spec, data, appIdx&0x80 != 0)
		fuzzEngines(t, spec, compiled[spec.Name], stream, int64(appIdx))
	})
}

// FuzzMigrateCMS checks oracle 4's invariant over arbitrary shapes,
// seeds, and key streams: a migrated sketch never under-counts
// relative to a fresh sketch fed the same suffix. Pure structures —
// no compile — so this target explores shape space cheaply.
func FuzzMigrateCMS(f *testing.F) {
	f.Add(byte(4), byte(64), byte(2), byte(128), uint16(0), []byte("migrate-seed"))
	f.Add(byte(1), byte(1), byte(8), byte(255), uint16(16), []byte("\xff\x00\xff\x00"))
	f.Add(byte(2), byte(32), byte(2), byte(32), uint16(8), []byte("same-shape"))
	f.Fuzz(func(t *testing.T, r1, c1, r2, c2 byte, seed uint16, data []byte) {
		rows1, cols1 := int(r1)%8+1, int(c1)%512+1
		rows2, cols2 := int(r2)%8+1, int(c2)%512+1
		old, err := structures.NewCountMinSketchSeeded(rows1, cols1, uint64(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		cut := len(data) / 2
		keys := make([]uint64, len(data))
		for i, b := range data {
			keys[i] = uint64(b)
		}
		for _, k := range keys[:cut] {
			old.Update(k)
		}
		hot := elastic.Summarize(keys[:cut], 0, 16, 64).HotKeys
		migrated, err := elastic.MigrateCMS(old, rows2, cols2, hot)
		if err != nil {
			t.Fatal(err)
		}
		if migrated.Seed() != old.Seed() {
			t.Fatalf("migration dropped seed: %d -> %d", old.Seed(), migrated.Seed())
		}
		fresh, err := structures.NewCountMinSketchSeeded(rows2, cols2, uint64(seed))
		if err != nil {
			t.Fatal(err)
		}
		truth := map[uint64]uint32{}
		for _, k := range keys[cut:] {
			migrated.Update(k)
			fresh.Update(k)
			truth[k]++
		}
		for k, n := range truth {
			m, fr := migrated.Estimate(k), fresh.Estimate(k)
			if m < fr || m < n {
				t.Fatalf("shape %dx%d->%dx%d seed %d: key %d migrated %d, fresh %d, truth %d",
					rows1, cols1, rows2, cols2, seed, k, m, fr, n)
			}
		}
	})
}
