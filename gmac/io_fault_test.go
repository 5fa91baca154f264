package gmac

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/machine"
)

// ioRig builds a context plus a file of `size` deterministic bytes, with
// the filesystem armed with the given fault schedule.
func ioRig(t *testing.T, size int64, rules ...fault.Rule) (*Context, *machine.Machine, []byte) {
	t.Helper()
	m := machine.SmallTestbed()
	ctx, err := NewContext(m, Config{Protocol: RollingUpdate, BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	if len(rules) > 0 {
		m.FS.SetFaultInjector(fault.NewInjector(1, m.Clock, rules...))
	}
	return ctx, m, payload
}

// TestReadFileUnderInjectedIOErrors drives the interposed read(2) over a
// multi-chunk transfer with faults injected at the filesystem layer and
// checks the partial-transfer contract: the returned total counts exactly
// the bytes that landed in shared memory, the error surfaces, and the
// prefix that did land is intact.
func TestReadFileUnderInjectedIOErrors(t *testing.T) {
	const chunk = ioChunk
	const size = 3 * chunk
	cases := []struct {
		name      string
		rules     []fault.Rule
		wantTotal int64
		wantErr   error
	}{
		{"no-faults", nil, size, nil},
		{"first-chunk-fails", []fault.Rule{fault.Nth(fault.OpFileRead, 1, fault.KindTransient)}, 0, fault.ErrInjected},
		{"mid-transfer-fails", []fault.Rule{fault.Nth(fault.OpFileRead, 2, fault.KindTransient)}, chunk, fault.ErrInjected},
		{"last-chunk-times-out", []fault.Rule{fault.Nth(fault.OpFileRead, 3, fault.KindTimeout)}, 2 * chunk, fault.ErrInjected},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, m, payload := ioRig(t, size, tc.rules...)
			m.FS.CreateWith("in.dat", payload)
			p, err := ctx.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			f, err := m.FS.Open("in.dat")
			if err != nil {
				t.Fatal(err)
			}
			before := m.Clock.Now()
			got, err := ctx.ReadFile(f, p, size)
			if got != tc.wantTotal {
				t.Fatalf("ReadFile = %d bytes, want %d", got, tc.wantTotal)
			}
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("ReadFile: %v", err)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("ReadFile error %v, want %v", err, tc.wantErr)
			}
			if tc.name == "last-chunk-times-out" && m.Clock.Now()-before < fault.DefaultTimeoutDelay {
				t.Fatal("timeout fault did not charge its delay to virtual time")
			}
			// The delivered prefix is intact in shared memory.
			if got > 0 {
				back := make([]byte, got)
				if err := ctx.HostRead(p, back); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, payload[:got]) {
					t.Fatal("delivered prefix corrupted")
				}
			}
		})
	}
}

// TestWriteFileUnderInjectedIOErrors is the write-side counterpart: the
// interposed write(2) must report exactly the bytes that reached the file
// before the injected fault, and those bytes must match shared memory.
func TestWriteFileUnderInjectedIOErrors(t *testing.T) {
	const chunk = ioChunk
	const size = 2 * chunk
	cases := []struct {
		name      string
		rules     []fault.Rule
		wantTotal int64
		wantErr   error
	}{
		{"no-faults", nil, size, nil},
		{"first-chunk-fails", []fault.Rule{fault.Nth(fault.OpFileWrite, 1, fault.KindTransient)}, 0, fault.ErrInjected},
		{"second-chunk-fails", []fault.Rule{fault.Nth(fault.OpFileWrite, 2, fault.KindTransient)}, chunk, fault.ErrInjected},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, m, payload := ioRig(t, size, tc.rules...)
			p, err := ctx.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.MemcpyToShared(p, payload); err != nil {
				t.Fatal(err)
			}
			out := m.FS.Create("out.dat")
			got, err := ctx.WriteFile(out, p, size)
			if got != tc.wantTotal {
				t.Fatalf("WriteFile = %d bytes, want %d", got, tc.wantTotal)
			}
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("WriteFile error %v, want %v", err, tc.wantErr)
			}
			data, cerr := m.FS.Contents("out.dat")
			if cerr != nil {
				t.Fatal(cerr)
			}
			if int64(len(data)) != tc.wantTotal {
				t.Fatalf("file holds %d bytes, want %d", len(data), tc.wantTotal)
			}
			if !bytes.Equal(data, payload[:tc.wantTotal]) {
				t.Fatal("file prefix does not match shared memory")
			}
		})
	}
}
