package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// echoHandler responds with the request payload prefixed by "echo:".
var echoHandler = HandlerFunc(func(req []byte) ([]byte, error) {
	return append([]byte("echo:"), req...), nil
})

func testNetworkEcho(t *testing.T, n Network, addr string) {
	t.Helper()
	ln, err := n.Listen(addr, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	dialAddr := addr
	if a, ok := ln.(interface{ Addr() net.Addr }); ok {
		dialAddr = a.Addr().String()
	}
	c, err := n.Dial(dialAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hello" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestTCPEcho(t *testing.T) {
	testNetworkEcho(t, TCP{}, "127.0.0.1:0")
}

func TestInProcEcho(t *testing.T) {
	testNetworkEcho(t, NewInProc(), "node1")
}

func TestTCPConcurrentCalls(t *testing.T) {
	n := TCP{}
	ln, err := n.Listen("127.0.0.1:0", HandlerFunc(func(req []byte) ([]byte, error) {
		return req, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.(interface{ Addr() net.Addr }).Addr().String()

	c, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 16
	const calls = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers*calls)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				msg := []byte(fmt.Sprintf("w%d-c%d", w, i))
				resp, err := c.Call(msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, msg) {
					errs <- fmt.Errorf("mismatched response %q for %q", resp, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	for name, mk := range map[string]func() (Network, string){
		"tcp":    func() (Network, string) { return TCP{}, "127.0.0.1:0" },
		"inproc": func() (Network, string) { return NewInProc(), "svc" },
	} {
		t.Run(name, func(t *testing.T) {
			n, addr := mk()
			ln, err := n.Listen(addr, HandlerFunc(func(req []byte) ([]byte, error) {
				return nil, errors.New("boom")
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			dialAddr := addr
			if a, ok := ln.(interface{ Addr() net.Addr }); ok {
				dialAddr = a.Addr().String()
			}
			c, err := n.Dial(dialAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.Call([]byte("x"))
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("error = %v, want RemoteError", err)
			}
			if !strings.Contains(re.Error(), "boom") {
				t.Fatalf("error text = %q", re.Error())
			}
		})
	}
}

func TestTCPCallAfterClose(t *testing.T) {
	n := TCP{}
	ln, err := n.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.(interface{ Addr() net.Addr }).Addr().String()
	c, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call([]byte("x")); err == nil {
		t.Fatal("Call on closed conn succeeded")
	}
}

func TestTCPServerShutdownFailsPendingDials(t *testing.T) {
	n := TCP{}
	block := make(chan struct{})
	ln, err := n.Listen("127.0.0.1:0", HandlerFunc(func(req []byte) ([]byte, error) {
		<-block
		return req, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.(interface{ Addr() net.Addr }).Addr().String()
	c, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call([]byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the server
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("call failed: %v", err)
	}
	ln.Close()
	c.Close()
}

func TestInProcDialRequiresListener(t *testing.T) {
	n := NewInProc()
	if _, err := n.Dial("missing"); err == nil {
		t.Fatal("Dial of unregistered address succeeded")
	}
}

func TestInProcDuplicateListen(t *testing.T) {
	n := NewInProc()
	ln, err := n.Listen("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := n.Listen("a", echoHandler); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
}

func TestInProcListenerClose(t *testing.T) {
	n := NewInProc()
	ln, err := n.Listen("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := c.Call([]byte("x")); err == nil {
		t.Fatal("Call after listener close succeeded")
	}
}

func TestLatencyWrapperDelays(t *testing.T) {
	n := &Latency{
		Inner: NewInProc(),
		Delay: func() time.Duration { return 5 * time.Millisecond },
	}
	ln, err := n.Listen("svc", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := n.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Call([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("call returned in %v, want >= 5ms", elapsed)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPCallAsyncPipelines verifies the native wire pipelining: many
// requests submitted back-to-back on ONE connection, responses
// collected afterwards, every call ID matched to its caller.
func TestTCPCallAsyncPipelines(t *testing.T) {
	var tcp TCP
	ln, err := tcp.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := tcp.Dial(ln.(interface{ Addr() net.Addr }).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ac, ok := c.(AsyncCaller)
	if !ok {
		t.Fatal("tcp conn does not implement AsyncCaller")
	}
	const n = 64
	chans := make([]<-chan CallResult, n)
	for i := 0; i < n; i++ {
		chans[i] = ac.CallAsync([]byte(fmt.Sprintf("req-%d", i)))
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("call %d: %v", i, res.Err)
		}
		want := fmt.Sprintf("echo:req-%d", i)
		if string(res.Payload) != want {
			t.Fatalf("call %d payload = %q, want %q", i, res.Payload, want)
		}
	}
}

// parkingServer listens on TCP with a handler that echoes every request
// except "park", which blocks until release is closed.
func parkingServer(t *testing.T) (ln io.Closer, addr string, parked chan struct{}, release chan struct{}) {
	t.Helper()
	parked, release = make(chan struct{}, 16), make(chan struct{})
	ln, err := TCP{}.Listen("127.0.0.1:0", HandlerFunc(func(req []byte) ([]byte, error) {
		if string(req) == "park" {
			parked <- struct{}{}
			<-release
		}
		return req, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return ln, ln.(interface{ Addr() net.Addr }).Addr().String(), parked, release
}

// TestTCPParkedHandlerDoesNotBlockConnection: a request whose handler
// parks (a long-polled event wait, a proposal waiting for its quorum)
// holds its own worker, not the connection — the next request on the
// same connection is read and answered meanwhile.
func TestTCPParkedHandlerDoesNotBlockConnection(t *testing.T) {
	ln, addr, parked, release := parkingServer(t)
	defer ln.Close()
	c, err := TCP{}.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slow := CallAsync(c, []byte("park"))
	<-parked
	for i := 0; i < 3; i++ {
		fast := CallAsync(c, []byte("ping"))
		select {
		case res := <-fast:
			if res.Err != nil || string(res.Payload) != "ping" {
				t.Fatalf("ping = %q, %v", res.Payload, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a parked handler blocked the next request on its connection")
		}
	}
	close(release)
	if res := <-slow; res.Err != nil || string(res.Payload) != "park" {
		t.Fatalf("parked call = %q, %v", res.Payload, res.Err)
	}
}

// TestTCPPipelinedFramesAcrossReadBuffer sends 1000 calls back to back
// on one connection, so frames arrive several to a read and straddle the
// connection's read buffer, with payloads just under, at, just over and
// several times its size, and one near the frame-size limit; every
// reply must come back intact to its own caller.
func TestTCPPipelinedFramesAcrossReadBuffer(t *testing.T) {
	ln, err := TCP{}.Listen("127.0.0.1:0", HandlerFunc(func(req []byte) ([]byte, error) { return req, nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := TCP{}.Dial(ln.(interface{ Addr() net.Addr }).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sizes := []int{0, 1, 17, connReadBuf - 13, connReadBuf - 12, connReadBuf, connReadBuf + 1, 3*connReadBuf + 7}
	const calls = 1000
	payload := func(i int) []byte {
		n := sizes[i%len(sizes)]
		if i == calls/2 {
			n = wire.MaxFrameSize - 64 // the reply frame adds 13 bytes to it
		}
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i + j)
		}
		return p
	}
	chans := make([]<-chan CallResult, calls)
	for i := range chans {
		chans[i] = CallAsync(c, payload(i))
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("call %d: %v", i, res.Err)
		}
		if want := payload(i); !bytes.Equal(res.Payload, want) {
			t.Fatalf("call %d: %d bytes back, want %d intact", i, len(res.Payload), len(want))
		}
	}
}

// TestTCPCloseWaitsForHandlersAndLeavesNoGoroutines: Close returns only
// once every in-flight handler has, and then no worker, reader or
// accept loop of the server — nor any client reader — is left running.
func TestTCPCloseWaitsForHandlersAndLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	ln, addr, parked, release := parkingServer(t)
	var conns []Conn
	for i := 0; i < 3; i++ {
		c, err := TCP{}.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		for j := 0; j < 20; j++ {
			if _, err := c.Call([]byte("ping")); err != nil {
				t.Fatal(err)
			}
		}
	}
	slow := CallAsync(conns[0], []byte("park"))
	<-parked

	closed := make(chan error, 1)
	go func() { closed <- ln.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	<-slow // answered, or failed with the closed connection
	for _, c := range conns {
		c.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before Listen:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestCallAsyncFallback exercises the goroutine fallback on a Conn
// without native pipelining (the in-process network).
func TestCallAsyncFallback(t *testing.T) {
	n := NewInProc()
	ln, err := n.Listen("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := <-CallAsync(c, []byte("x"))
	if res.Err != nil || string(res.Payload) != "echo:x" {
		t.Fatalf("fallback result = %q, %v", res.Payload, res.Err)
	}
}

// TestCallAsyncOverlapsLatency proves abandonment-free concurrency
// under the latency wrapper: K async calls through a delayed network
// complete in far less than K sequential round trips.
func TestCallAsyncOverlapsLatency(t *testing.T) {
	const rtt = 20 * time.Millisecond
	n := &Latency{Inner: NewInProc(), Delay: func() time.Duration { return rtt }}
	ln, err := n.Listen("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const k = 10
	start := time.Now()
	chans := make([]<-chan CallResult, k)
	for i := 0; i < k; i++ {
		chans[i] = CallAsync(c, []byte("x"))
	}
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Duration(k)*rtt/2 {
		t.Fatalf("pipelined calls took %v, want well under the %v serial cost", elapsed, time.Duration(k)*rtt)
	}
}
