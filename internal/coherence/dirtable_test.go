package coherence

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// fuzzLine draws a line for FuzzDirectory from one of two ranges, on the
// socket op's bit 7 picks: with bit 6 clear, a clustered, ring-like range of
// 256 consecutive lines, whose probe runs collide and wrap in a small table;
// with it set, a scattered, KV-like range of one of 16 lines in each of
// 65,536 distinct 256 KB spans. Bits 0-1 (the operation) never affect the
// line, so create and retire of the same a, b and flags meet.
func fuzzLine(op, a, b byte) mem.Addr {
	home := int(op >> 7)
	if op&0x40 == 0 {
		return mem.LineAt(home, int(a))
	}
	return mem.LineAt(home, (int(a)<<8|int(b))*4096+int(op>>2&0xf))
}

// fuzzOps returns a seed input of n random operations; cluster is the
// share (of 8) drawn from the clustered range.
func fuzzOps(seed int64, n, cluster int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(256)) &^ 0x40
		if rng.Intn(8) >= cluster {
			op |= 0x40
		}
		ops = append(ops, op, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return ops
}

// ringOps returns a seed input that walks a window of live lines through
// the clustered range, as a descriptor ring cycles through its slots: each
// step creates the line at the head and retires the one window lines back,
// so deletions keep shifting probe runs that wrap around the table.
func ringOps(n, window int) []byte {
	var ops []byte
	for i := 0; i < n; i++ {
		ops = append(ops, 0, byte(i), 0) // create
		if i >= window {
			ops = append(ops, 1, byte(i-window), 0) // retire
		}
	}
	return ops
}

// kvOps returns a seed input that churns n distinct scattered lines, as a
// key-value store touches random keys: create them all, retire half in a
// shuffled order, create n/2 more, then retire everything. Hashed scattered
// lines collide, so retirements land inside probe runs.
func kvOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var keys [][2]byte
	for _, k := range rng.Perm(1 << 16)[:n+n/2] {
		keys = append(keys, [2]byte{byte(k >> 8), byte(k)})
	}
	var ops []byte
	emit := func(op byte, ks [][2]byte) {
		for _, i := range rng.Perm(len(ks)) {
			ops = append(ops, op|0x40, ks[i][0], ks[i][1])
		}
	}
	emit(0, keys[:n])
	emit(1, keys[:n/2])
	emit(0, keys[n:])
	emit(1, keys)
	return ops
}

// FuzzDirectory applies create, lookup and retire sequences to a dirTable
// and checks membership, record identity, the live count and address-order
// iteration against a map. Each operation is three bytes: the first selects
// the operation (low two bits: 0 create, 1 retire, otherwise lookup), the
// range (bit 6) and the socket (bit 7); the other two pick the line.
func FuzzDirectory(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 1, 1, 0, 0, 1, 0})
	f.Add(ringOps(100, 20))   // ring-like: a window walking consecutive lines
	f.Add(kvOps(1, 40))       // KV-like: scattered lines, retired mid-run
	f.Add(fuzzOps(1, 120, 8)) // random over the clustered range
	f.Add(fuzzOps(2, 120, 4)) // random, mixed ranges
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab dirTable
		ref := map[mem.Addr]*dirEntry{}
		for ; len(ops) >= 3; ops = ops[3:] {
			line := fuzzLine(ops[0], ops[1], ops[2])
			got := tab.find(line)
			if got != ref[line] {
				t.Fatalf("find(%#x) = %p, want %p", line, got, ref[line])
			}
			switch ops[0] & 3 {
			case 0: // create
				if got == nil {
					d := tab.insert(line)
					if d.line != line {
						t.Fatalf("insert(%#x) returned a record for %#x", line, d.line)
					}
					ref[line] = d
				}
			case 1: // retire
				if got != nil {
					tab.remove(got)
					delete(ref, line)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("table holds %d records, want %d", tab.n, len(ref))
			}
		}
		for line, d := range ref {
			if got := tab.find(line); got != d {
				t.Fatalf("find(%#x) = %p after the run, want %p", line, got, d)
			}
		}
		var order []mem.Addr
		tab.forEach(func(d *dirEntry) { order = append(order, d.line) })
		want := make([]mem.Addr, 0, len(ref))
		for line := range ref {
			want = append(want, line)
		}
		slices.Sort(want)
		if !slices.Equal(order, want) {
			t.Fatalf("forEach visited %d lines out of address order or membership (want %d)",
				len(order), len(want))
		}
	})
}

// TestDirectoryBoundedByResidency reads one line in each of 20,000
// distinct 256 KB spans on a platform whose caches hold 9,216 lines in all,
// then re-reads them in a loop. The line index must track what is resident,
// not what was ever touched: its record count never exceeds total cache
// capacity, the heap grows by a few MB rather than by an amount per span,
// and once warm the remote-read loop — which retires and recreates records
// on every LLC eviction — allocates nothing.
func TestDirectoryBoundedByResidency(t *testing.T) {
	const spans, span = 20_000, 256 << 10
	plat := platform.ICX()
	plat.L2Bytes, plat.LLCBytes = 64<<10, 256<<10
	k := sim.New()
	s := NewSystem(k, plat)
	host := s.NewAgent(0, "host")
	capLines := int((plat.L2Bytes + 2*plat.LLCBytes) / mem.LineSize)

	var lines []mem.Addr
	for home := 0; home < 2; home++ {
		base := s.Space().Alloc(home, spans/2*span, span)
		for i := 0; i < spans/2; i++ {
			lines = append(lines, base+mem.Addr(i*span+(i%64)*mem.LineSize))
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var allocs float64
	peak := 0
	k.Spawn("reader", func(p *sim.Proc) {
		for _, line := range lines {
			host.Read(p, line, mem.LineSize)
			peak = max(peak, s.dir.n)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		pass := func() {
			for _, line := range lines {
				host.Read(p, line, mem.LineSize)
			}
		}
		allocs = testing.AllocsPerRun(2, pass)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if peak > capLines {
		t.Errorf("%d live directory records exceed the caches' %d lines", peak, capLines)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 4<<20 {
		t.Errorf("heap grew %d B over %d spans, want under 4 MB", grown, spans)
	}
	if allocs != 0 {
		t.Errorf("steady-state remote-read loop allocates %v allocs/run, want 0", allocs)
	}
	if got := s.Counters(0).RemoteRead; got < spans/2 {
		t.Errorf("%d remote reads, want at least %d: the loop must cross the link", got, spans/2)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}
