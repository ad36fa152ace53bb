package main

import (
	"fmt"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.listen != "127.0.0.1:7171" || o.storeDir != "" || o.coordinator || o.join != "" ||
		o.heartbeat != time.Second || o.lameduck != 0 || o.drainTimeout != time.Minute {
		t.Fatalf("defaults: %+v", o)
	}
	s := o.server
	if s.Workers != 0 || s.QueueDepth != 16 || s.CacheEntries != 8 || s.CacheBytes != 1024<<20 ||
		s.JobTimeout != 10*time.Minute || s.MaxRetainedJobs != 256 || s.Store != nil {
		t.Fatalf("server defaults: %+v", s)
	}
}

func TestParseFlagsDrainTimeoutAlias(t *testing.T) {
	for _, name := range []string{"-draintimeout", "-drain-timeout"} {
		o, err := parseFlags([]string{name, "7s"})
		if err != nil {
			t.Fatal(err)
		}
		if o.drainTimeout != 7*time.Second {
			t.Fatalf("%s 7s: drain timeout %s", name, o.drainTimeout)
		}
	}
}

func TestParseFlagsCacheMB(t *testing.T) {
	for _, tc := range []struct {
		mb    int64
		bytes uint64
		ok    bool
	}{
		{0, 0, true},
		{1, 1 << 20, true},
		{maxCacheMB, maxCacheMB << 20, true},
		{-1, 0, false},
		{-1 << 62, 0, false},
		{maxCacheMB + 1, 0, false},
		{1 << 62, 0, false},
	} {
		o, err := parseFlags([]string{"-cache-mb", fmt.Sprint(tc.mb)})
		if (err == nil) != tc.ok {
			t.Fatalf("-cache-mb %d: err = %v, want ok %v", tc.mb, err, tc.ok)
		}
		if tc.ok && o.server.CacheBytes != tc.bytes {
			t.Fatalf("-cache-mb %d: %d bytes, want %d", tc.mb, o.server.CacheBytes, tc.bytes)
		}
	}
}

func TestNodeNameAndAdvertiseURL(t *testing.T) {
	for _, tc := range []struct {
		name, advertise, listen string
		wantName, wantURL       string
	}{
		{"", "", ":7171", "127.0.0.1:7171", "http://127.0.0.1:7171"},
		{"", "", "0.0.0.0:7171", "127.0.0.1:7171", "http://127.0.0.1:7171"},
		{"", "", "[::]:7171", "127.0.0.1:7171", "http://127.0.0.1:7171"},
		{"", "", "10.0.0.5:7171", "10.0.0.5:7171", "http://10.0.0.5:7171"},
		{"w1", "http://w1.example:7171/", ":7171", "w1", "http://w1.example:7171"},
		{"", "", "localhost", "localhost", "http://localhost"},
	} {
		if got := nodeName(tc.name, tc.listen); got != tc.wantName {
			t.Errorf("nodeName(%q, %q) = %q, want %q", tc.name, tc.listen, got, tc.wantName)
		}
		if got := advertiseURL(tc.advertise, tc.listen); got != tc.wantURL {
			t.Errorf("advertiseURL(%q, %q) = %q, want %q", tc.advertise, tc.listen, got, tc.wantURL)
		}
	}
}
