package faultinject

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestWriterSchedule(t *testing.T) {
	var sink bytes.Buffer
	fw := NewWriter(&sink, Schedule{2: {Kind: Fail}})
	if _, err := fw.Write([]byte("aaaa")); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if _, err := fw.Write([]byte("bbbb")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 2 should fail, got %v", err)
	}
	// Sticky: the writer died with the process it models.
	if _, err := fw.Write([]byte("cccc")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 3 should stay dead, got %v", err)
	}
	if sink.String() != "aaaa" {
		t.Fatalf("sink = %q", sink.String())
	}
}

func TestWriterShortWrite(t *testing.T) {
	var sink bytes.Buffer
	fw := NewWriter(&sink, Schedule{1: {Kind: ShortWrite, Bytes: 3}})
	n, err := fw.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write = %d, %v", n, err)
	}
	if sink.String() != "abc" {
		t.Fatalf("sink = %q", sink.String())
	}
}

func TestCutWriterTearsAtByteOffset(t *testing.T) {
	var sink bytes.Buffer
	fw := NewCutWriter(&sink, 10)
	if _, err := fw.Write([]byte("12345678")); err != nil {
		t.Fatalf("below offset: %v", err)
	}
	n, err := fw.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing write = %d, %v", n, err)
	}
	if sink.String() != "12345678ab" {
		t.Fatalf("sink = %q", sink.String())
	}
	if _, err := fw.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut write should fail, got %v", err)
	}
	if sink.Len() != 10 {
		t.Fatalf("%d bytes reached the sink, want 10", sink.Len())
	}
}

func TestRoundTripperFaults(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits++
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	frt := NewRoundTripper(srv.Client().Transport, Schedule{
		1: {Kind: Fail},
		2: {Kind: DropResponse},
	})
	client := &http.Client{Transport: frt}

	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("op 1 should fail")
	}
	if hits != 0 {
		t.Fatalf("failed request reached server: hits = %d", hits)
	}
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("op 2 should drop the response")
	}
	if hits != 1 {
		t.Fatalf("dropped-response request must reach server exactly once: hits = %d", hits)
	}
	resp, err := client.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("op 3 should pass: %v", err)
	}
	resp.Body.Close()
	if frt.op != 3 {
		t.Fatalf("ops = %d", frt.op)
	}
}
