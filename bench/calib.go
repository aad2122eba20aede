package main

import (
	"io"
	"net"
	"time"
)

// referencePingPerS is the host speed the closed-loop TCP workloads are
// reported at: the round trips per second hostPingPerS measures on the
// reference box while it is quiet.
const referencePingPerS = 160000

// hostPingPerS measures, for d, how fast the machine itself takes a
// 64-byte TCP loopback message from one goroutine to another and back —
// no code of the repository involved. A closed loop over loopback runs
// at the speed of exactly this primitive, and on a virtual machine that
// speed swings with the hypervisor's wake-up latency, by a quarter and
// more within minutes on the reference box (README, sizing).
func hostPingPerS(d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-echoed
		return 0, err
	}
	buf := make([]byte, 64)
	n := 0
	start := time.Now()
	for time.Since(start) < d && err == nil {
		if _, err = c.Write(buf); err == nil {
			_, err = io.ReadFull(c, buf)
		}
		n++
	}
	rate := float64(n) / time.Since(start).Seconds()
	c.Close()
	<-echoed
	return rate, err
}
