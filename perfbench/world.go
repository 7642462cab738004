package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/wire"
)

// serveLASS starts a LASS the way a same-host deployment runs one: on
// loopback TCP plus the unix socket beside it, so a handle's AutoDial
// takes the socket and upgrades it to the shared-memory ring.
func serveLASS() (*attrspace.Server, string, error) {
	srv, addr, err := tdp.ServeLASS("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	if _, err := srv.ListenUnixBeside(addr); err != nil {
		srv.Close()
		return nil, "", fmt.Errorf("listen unix beside %s: %w", addr, err)
	}
	return srv, addr, nil
}

// probeTransport dials a bare client exactly as the handles dial their
// LASS and reports the transport it negotiated. Where this build
// supports the shm ring, not getting it is an error: every same-host
// figure would silently measure the socket instead.
func probeTransport() (string, error) {
	srv, addr, err := serveLASS()
	if err != nil {
		return "", err
	}
	defer srv.Close()
	c, err := attrspace.Dial(nil, addr, "perfbench-probe")
	if err != nil {
		return "", fmt.Errorf("probe dial: %w", err)
	}
	shm := c.ShmActive()
	c.Close()
	switch {
	case shm:
		return "shm", nil
	case wire.ShmSupported():
		return "", errors.New("shm transport is supported but the LASS connection did not negotiate it")
	default:
		return "unix", nil
	}
}

// leftovers lists the socket and segment files the attribute servers
// create in the temp directory that are still there.
func leftovers(dir string) []string {
	var out []string
	for _, pat := range []string{"tdp-attr-*.sock", "tdp-shm-*.seg"} {
		m, _ := filepath.Glob(filepath.Join(dir, pat)) // only ErrBadPattern, and the patterns are fixed
		out = append(out, m...)
	}
	return out
}

// withRunTempDir gives the run its own temp directory (the servers put
// their sockets and segment files in os.TempDir), runs fn, and then
// fails if any socket or segment file the run created survived it.
func withRunTempDir(base string, fn func() error) error {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	prev, had := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", dir)
	defer func() {
		if had {
			os.Setenv("TMPDIR", prev)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}()
	if err := fn(); err != nil {
		return err
	}
	if left := leftovers(dir); len(left) > 0 {
		return fmt.Errorf("run left %d socket/segment files behind: %v", len(left), left)
	}
	return nil
}
