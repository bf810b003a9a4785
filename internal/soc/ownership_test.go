package soc

import (
	"bytes"
	"testing"

	"gonoc/internal/ip"
)

// TestReadDataOwnership keeps four reads in flight on every socket and
// checks each one's bytes while its completion runs. Read data is valid
// only during the completion, and the masters, memories, NIUs and bus
// bridges reuse their buffers once nothing can still read them: a buffer
// reused too early hands one read another's bytes. Each socket writes
// four disjoint 16 B windows with distinct bytes (Socket.Issue's payload
// is address-derived), then reads them back to back with k = 0..3, so
// the interleaving sockets use four IDs. The Fig 2 bus build is checked
// too, because its bridges hold read data across cycles.
func TestReadDataOwnership(t *testing.T) {
	for _, build := range []struct {
		name string
		sys  func() *System
	}{
		{"noc", func() *System { return quietFig1(Crossbar) }},
		{"bus", func() *System { return BuildBus(Config{Seed: 1, Quiet: true}) }},
	} {
		s := build.sys()
		socks := s.Sockets()
		for _, name := range Masters(s.WBM != nil) {
			sock := socks[name]
			t.Run(build.name+"/"+name, func(t *testing.T) {
				const windows, n, stride = 4, 16, 64
				base := genRegion(name).Base
				size := n
				if name == "pvci" {
					size = 4 // a single-word socket clamps to one beat
				}
				// The bus's prop bridge takes one stream per direction at
				// a time, so its transactions go one by one.
				serial := build.name == "bus" && name == "prop"
				pending := 0
				run := func() {
					for c := 0; pending > 0 && c < 100_000; c++ {
						s.Clk.RunCycles(1)
					}
					if pending > 0 {
						t.Fatalf("%d transactions hung", pending)
					}
				}
				for k := 0; k < windows; k++ {
					pending++
					sock.Issue(k, true, base+uint64(k*stride), n, func(_ []byte, err bool) {
						if err {
							t.Errorf("write %d failed", k)
						}
						pending--
					})
					if serial {
						run()
					}
				}
				run()
				for k := 0; k < windows; k++ {
					addr := base + uint64(k*stride)
					pending++
					sock.Issue(k, false, addr, n, ip.Done(func(data []byte, err bool) {
						pending--
						want := make([]byte, size)
						for i := range want {
							want[i] = byte(addr>>2) + byte(i)
						}
						if err || !bytes.Equal(data, want) {
							t.Errorf("read %d at %#x: err=%v data % x, want % x", k, addr, err, data, want)
						}
					}))
					if serial {
						run()
					}
				}
				run()
			})
		}
	}
}
