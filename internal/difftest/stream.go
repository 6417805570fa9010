package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"p4all/internal/sim"
	"p4all/internal/workload"
)

// keySpace bounds the key domain generated streams draw from; small
// enough that hash collisions actually occur at the solved structure
// sizes, which is where differential bugs hide.
const keySpace = 4096

// GenStream derives a deterministic packet stream for an app from a
// seed: the key field follows a zipf popularity curve (matching the
// workloads the paper evaluates under), every other field is uniform
// in its declared width.
func GenStream(spec AppSpec, seed int64, n int) []sim.Packet {
	rng := rand.New(rand.NewSource(seed*31 + int64(len(spec.Name))))
	var keys []uint64
	for _, f := range spec.Fields {
		if f.Key {
			keys = workload.ZipfKeys(seed, keySpace, 1.1, n)
		}
	}
	// One backing array holds every packet's fields; each packet is a
	// capacity-clipped window of it, so appending to one packet can
	// never overwrite its neighbour.
	nf := len(spec.Fields)
	fields := make([]sim.Field, n*nf)
	out := make([]sim.Packet, n)
	for i := range out {
		pkt := sim.Packet(fields[i*nf : (i+1)*nf : (i+1)*nf])
		for j, f := range spec.Fields {
			pkt[j].Name = f.Name
			if f.Key {
				pkt[j].Value = keys[i]
			} else {
				pkt[j].Value = rng.Uint64() & widthMask(f.Width)
			}
		}
		out[i] = pkt
	}
	return out
}

// widthMask mirrors the simulator's truncation rule for generated
// field values.
func widthMask(bits int) uint64 {
	if bits <= 0 || bits >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(bits)) - 1
}

// formatStream renders a packet stream as a compact repro listing, one
// packet per line with fields in sorted order.
func formatStream(stream []sim.Packet) string {
	var b strings.Builder
	for i, pkt := range stream {
		fields := slices.Clone(pkt)
		slices.SortStableFunc(fields, func(x, y sim.Field) int { return strings.Compare(x.Name, y.Name) })
		fmt.Fprintf(&b, "  pkt[%d]:", i)
		for _, f := range fields {
			fmt.Fprintf(&b, " %s=%d", f.Name, f.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
