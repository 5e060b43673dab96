package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// serveBlob accepts connections and writes blob to each until ln closes.
func serveBlob(t *testing.T, ln net.Listener, blob []byte) {
	t.Helper()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(blob)
			}(c)
		}
	}()
}

func TestConnDropAfterBytes(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := WrapListener(inner, ConnOptions{Seed: 1, DropAfter: 4 << 10})
	defer ln.Close()
	blob := bytes.Repeat([]byte("x"), 64<<10)
	serveBlob(t, ln, blob)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := io.ReadAll(c)
	if err == nil && len(got) == len(blob) {
		t.Fatalf("read full %d bytes; want mid-stream drop", len(got))
	}
	if len(got) >= len(blob) {
		t.Fatalf("read %d bytes, want fewer than %d", len(got), len(blob))
	}
}

func TestListenerPartitionAndHeal(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := WrapListener(inner, ConnOptions{Seed: 1})
	defer ln.Close()
	serveBlob(t, ln, []byte("pong"))

	// A healthy connection first, held open across the partition.
	pre, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(pre, buf); err != nil {
		t.Fatalf("read before partition: %v", err)
	}

	ln.Partition()

	// New connections dial fine but die before the first byte.
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read during partition succeeded, want failure")
	}
	c.Close()

	ln.Heal()
	post, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer post.Close()
	if _, err := io.ReadFull(post, buf); err != nil || string(buf) != "pong" {
		t.Fatalf("read after heal = %q, %v; want \"pong\"", buf, err)
	}
}

func TestConnDeadAfterDrop(t *testing.T) {
	// Once the budget fires, every later operation returns ErrInjected.
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := WrapListener(inner, ConnOptions{Seed: 7, DropAfter: 8})
	defer ln.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cl, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-accepted
	defer srv.Close()

	if _, err := srv.Write(bytes.Repeat([]byte("y"), 64)); !errors.Is(err, ErrInjected) && err == nil {
		t.Fatalf("write past budget: err = %v, want injected failure", err)
	}
	if _, err := srv.Write([]byte("z")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after death = %v, want ErrInjected", err)
	}
}

func TestSeededDeterminism(t *testing.T) {
	// Two listeners with the same seed sever connections at the same
	// budget; different seeds (almost surely) differ.
	budgetOf := func(seed int64) int64 {
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln := WrapListener(inner, ConnOptions{Seed: seed, DropAfter: 1024, DropJitter: 1 << 20})
		defer ln.Close()
		accepted := make(chan *Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err == nil {
				accepted <- c.(*Conn)
			}
		}()
		cl, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		c := <-accepted
		defer c.Close()
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.budget
	}
	if a, b := budgetOf(42), budgetOf(42); a != b {
		t.Fatalf("same seed gave budgets %d and %d", a, b)
	}
	if a, b := budgetOf(42), budgetOf(43); a == b {
		t.Fatalf("different seeds both gave budget %d", a)
	}
}
