package exec

import "testing"

// TestMorselSize checks the automatic morsel size: never 0, never above
// DefaultMorselSize, and at least morselsPerWorker morsels per worker
// whenever the table has that many positions and the cap allows it.
func TestMorselSize(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, size := range []int{0, 1, 2, 31, 32, 63, 64, 65, 120, 300, 4800, 65536, 1 << 20, 1 << 26} {
			m := morselSize(size, workers)
			if m < 1 || m > DefaultMorselSize {
				t.Fatalf("morselSize(%d, %d) = %d, want in [1, %d]", size, workers, m, DefaultMorselSize)
			}
			want := morselsPerWorker * max(workers, 1)
			if size < want {
				want = size // one position per morsel is as fine as it gets
			}
			capped := m == DefaultMorselSize && size > want*DefaultMorselSize
			if n := (size + m - 1) / m; n < want && !capped {
				t.Errorf("morselSize(%d, %d) = %d gives %d morsels, want at least %d", size, workers, m, n, want)
			}
		}
	}
	if got := (ParallelOptions{MorselSize: 7}).morsel(4800, 2); got != 7 {
		t.Errorf("an explicit MorselSize gave %d, want 7", got)
	}
}

// TestStealQueueAllocs pins the steal queue's set-up cost: its cells'
// binding snapshots are carved from two flat arrays, not allocated per cell.
func TestStealQueueAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() { newStealQueue(stealQueueCap, 5, 4) })
	if allocs > 4 {
		t.Errorf("newStealQueue allocates %.0f times, want at most 4", allocs)
	}
}
