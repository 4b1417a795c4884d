package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// TestKeySchemeRoundTrip: for every key scheme × self/R-S, the keys the
// mapper emits decode, on the reduce side, into the round, role and
// block the scheme promises, and a key of the wrong length is a typed
// malformed-key error, not a panic.
func TestKeySchemeRoundTrip(t *testing.T) {
	const g, rid, l, blocks, width = 77, 1234567, 9, 3, 2
	b := uint32(rid % blocks)
	schemes := []struct {
		name string
		cfg  Config
	}{
		{"plain BK", Config{Kernel: BK}},
		{"plain PK", Config{Kernel: PK}},
		{"plain FVT", Config{Kernel: FVT}},
		{"plain split", Config{Kernel: BK, SplitK: 3}},
		{"plain PK split", Config{Kernel: PK, SplitK: 3}},
		{"length-routed", Config{Kernel: BK, LengthRouting: true, LengthBucket: width}},
		{"map-blocked", Config{Kernel: BK, BlockMode: MapBlocks, NumBlocks: blocks}},
		{"reduce-blocked", Config{Kernel: BK, BlockMode: ReduceBlocks, NumBlocks: blocks}},
	}
	for _, sc := range schemes {
		for _, c := range []struct {
			self bool
			role byte
		}{{true, roleBuild}, {false, roleBuild}, {false, roleProbe}} {
			cfg := sc.cfg
			cfg.Threshold = 0.8
			ks := newKeyScheme(&cfg, c.self)
			name := fmt.Sprintf("%s self=%v role=%d", sc.name, c.self, c.role)
			t.Run(name, func(t *testing.T) {
				var emitted [][]byte
				err := ks.emitKeys(nil, g, 5, rid, l, c.role, func(k []byte) error {
					emitted = append(emitted, append([]byte(nil), k...))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := cfg.Fn.LengthBounds(l, cfg.Threshold)
				wantCopies := 1
				switch {
				case ks.kind == lengthKeys && c.self:
					wantCopies = l/width - lo/width + 1
				case ks.kind == lengthKeys && c.role == roleProbe:
					wantCopies = hi/width - lo/width + 1
				case ks.kind == mapBlockKeys && c.self:
					wantCopies = int(b) + 1
				case ks.kind == mapBlockKeys && c.role == roleProbe:
					wantCopies = blocks
				}
				if len(emitted) != wantCopies {
					t.Fatalf("emitted %d keys, want %d", len(emitted), wantCopies)
				}
				builds := 0
				for _, k := range emitted {
					if got := binary.BigEndian.Uint32(k); got != g {
						t.Fatalf("key %x: group %d, want %d", k, got, g)
					}
					if ks.split && k[4] != 5 {
						t.Fatalf("key %x: cell %d, want 5", k, k[4])
					}
					round, role, block, err := ks.decode(k)
					if err != nil {
						t.Fatalf("key %x: %v", k, err)
					}
					if role == roleBuild {
						builds++
						if ks.kind == mapBlockKeys && round != b {
							t.Fatalf("build copy in round %d, want %d", round, b)
						}
						if ks.kind == reduceBlockKeys && block != b {
							t.Fatalf("build copy in block %d, want %d", block, b)
						}
					}
					if ks.kind != mapBlockKeys && round != 0 {
						t.Fatalf("key %x: round %d in a one-round scheme", k, round)
					}
				}
				if wantBuilds := map[bool]int{true: 1, false: 0}[c.role == roleBuild]; builds != wantBuilds {
					t.Fatalf("%d build copies, want %d", builds, wantBuilds)
				}
				k := emitted[0]
				for _, bad := range [][]byte{k[:len(k)-1], append(k, 0), nil} {
					_, _, _, err := ks.decode(bad)
					var mk *malformedKeyError
					if !errors.As(err, &mk) || mk.n != len(bad) {
						t.Fatalf("decode of %d-byte key: err %v, want a malformed-key error", len(bad), err)
					}
					if want := fmt.Sprintf("core: malformed %s key of %d bytes", ks, len(bad)); err.Error() != want {
						t.Fatalf("error %q, want %q", err, want)
					}
				}
			})
		}
	}
}
