package wire

import (
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

// FuzzDecode is the native fuzz target wired into the CI smoke run
// (`make fuzz`): Decode must never panic, and anything it accepts must
// round-trip stably through Encode, AppendEncode (the unsorted
// hot-path encoder), and DecodeInto (the reusing decoder).
func FuzzDecode(f *testing.F) {
	f.Add([]byte(""))
	f.Add(NewMessage("PUT").Set("attr", "pid").Set("value", "1234").Encode())
	f.Add(NewMessage("STATS").SetTrace("aaaabbbbccccdddd", "0123456789abcdef").Encode())
	f.Add([]byte("3:PUT2;4:attr3:pid"))
	// Hot-path seeds: batched puts, hot-path encoder output, hostile counts.
	f.Add(NewMessage("MPUT").SetInt("n", 2).
		Set("k0", "pid").Set("v0", "1234").
		Set("k1", "executable_name").Set("v1", "science").Encode())
	f.Add(NewMessage("MPUT").SetInt("n", -3).Set("k0", "a").Encode())
	f.Add(NewMessage("EVENT").Set("attr", "a").Set("op", "put").Set("seq", "7").AppendEncode(nil))
	f.Add([]byte("3:PUT999999999;4:attr3:pid")) // count far past payload
	f.Add([]byte("3:PUT0;"))
	// Transport v2 seeds: mux-framed messages, window updates, delta
	// snapshots, and chunked snapshot parts.
	f.Add(NewMessage("EVENT").Set("attr", "a").Set(FieldStream, "1").Encode())
	f.Add(NewMessage("OK").Set(FieldWindow, "1:32,2:7").Encode())
	f.Add(NewMessage(VerbWinUpdate).Set(FieldWindow, "2:64").Encode())
	f.Add(NewMessage(VerbWinUpdate).Set(FieldWindow, ":::,0:-1,99999999999:1").Encode())
	f.Add(NewMessage("SNAPD").Set("context", "g").SetInt("since", 41).Encode())
	f.Add(NewMessage("DELTA").SetInt("n", 2).SetInt("seq", 44).
		Set("k0", "pid").Set("v0", "1").Set("s0", "43").
		Set("k1", "dead").Set("o1", "d").Set("s1", "44").Encode())
	f.Add(NewMessage("SNAPV").SetInt("part", 3).SetInt("more", 1).
		Set(FieldStream, "2").Set("k0", "a").Set("v0", "b").Set("s0", "9").Encode())
	f.Add(NewMessage("HELLO").Set("context", "g").Set("caps", "mux,snapd,chunk,ping").Encode())
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Decode(payload)
		if err != nil {
			return
		}
		again, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("accepted payload does not re-decode: %v", err)
		}
		if again.Verb != m.Verb || !reflect.DeepEqual(again.Fields, m.Fields) {
			t.Fatalf("unstable round trip: %v vs %v", m, again)
		}
		// The hot-path pair must agree with the deterministic pair.
		reused := new(Message)
		if err := DecodeInto(reused, m.AppendEncode(nil)); err != nil {
			t.Fatalf("AppendEncode output does not DecodeInto: %v", err)
		}
		if reused.Verb != m.Verb || !reflect.DeepEqual(reused.Fields, m.Fields) {
			t.Fatalf("hot-path round trip disagrees: %v vs %v", m, reused)
		}
		if m.EncodedSize() != len(m.Encode()) {
			t.Fatalf("EncodedSize %d != len(Encode) %d", m.EncodedSize(), len(m.Encode()))
		}
	})
}

// TestDecodeNeverPanics feeds arbitrary bytes to the decoder: it must
// return a message or an error, never panic — the server's first line
// of defense against corrupt or hostile peers.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(payload []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Decode(payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeOfMutatedEncodings flips bytes in valid encodings; the
// decoder must never panic and never mis-accept trailing garbage as
// extra fields.
func TestDecodeOfMutatedEncodings(t *testing.T) {
	base := NewMessage("PUT").Set("attr", "pid").Set("value", "1234").Encode()
	for i := 0; i < len(base); i++ {
		for _, b := range []byte{0x00, 0xFF, ':', ';', '9'} {
			mutated := append([]byte(nil), base...)
			mutated[i] = b
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on mutation at %d -> %q: %v", i, b, r)
					}
				}()
				if m, err := Decode(mutated); err == nil {
					// Accepted mutations must still be self-consistent:
					// re-encoding and re-decoding agrees.
					again, err2 := Decode(m.Encode())
					if err2 != nil || again.Verb != m.Verb {
						t.Fatalf("accepted mutation at %d is not stable", i)
					}
				}
			}()
		}
	}
}

// TestEncodeDecodeIdentityQuick is the round-trip property over fully
// random field maps, including empty and binary-ish strings.
func TestEncodeDecodeIdentityQuick(t *testing.T) {
	f := func(verb string, fields map[string]string) bool {
		m := &Message{Verb: verb, Fields: fields}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		if got.Verb != verb {
			return false
		}
		if len(got.Fields) != len(fields) {
			return false
		}
		for k, v := range fields {
			if got.Fields[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// FuzzMux feeds arbitrary _stream / _win header values through Accept.
// Invariants: never panic, a WINUP is always transport-only, invalid
// stream IDs (0, non-numeric, past maxStreamID) are never accounted, and
// no grant — however hostile — pushes a send window past its initial
// size.
func FuzzMux(f *testing.F) {
	seeds := []struct {
		stream, win string
	}{
		{"1", "1:1"},
		{"2", "2:64"},
		{"0", "0:5"}, // WINUP-style grant for stream 0: ignored
		{"99999999999", ":::,0:-1,99999999999:1"}, // overflow stream, garbage grants
		{"-3", "2:-7"},        // negative values everywhere
		{"2", "2:1073741825"}, // grant past maxByteGrant
		{"65537", "65537:1"},  // just past maxStreamID
		{"", "1:1,2:2,3:3"},   // grants with no stream
		{"3", ""},
		{"1", "1:32768"},               // exactly the events window
		{"2", "2:262145"},              // one byte past the bulk window: capped
		{"3", "3:1073741824"},          // exactly maxByteGrant
		{"65536", "65536:1"},           // exactly maxStreamID
		{"1", "1:1,1:1,1:1"},           // repeated grants for one stream
		{"2", "2:"},                    // grant with no amount
		{"4", "4:9223372036854775807"}, // int64 max
		{"+1", "+1:+1"},                // explicit signs
		{" 2", "2 :1"},                 // stray whitespace
	}
	for _, s := range seeds {
		f.Add(s.stream, s.win)
	}
	f.Fuzz(func(t *testing.T, stream, win string) {
		ca, cb := net.Pipe()
		defer ca.Close()
		defer cb.Close()
		// Drain the peer side so a threshold-triggered WINUP cannot
		// block Accept on the synchronous pipe.
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := cb.Read(buf); err != nil {
					return
				}
			}
		}()
		x := NewMux(NewConn(ca), MuxConfig{})

		// A pure window update must always be transport-only.
		wm := NewMessage(VerbWinUpdate)
		if win != "" {
			wm.Set(FieldWindow, win)
		}
		if sid, handled := x.Accept(wm); !handled || sid != 0 {
			t.Fatalf("WINUP: handled=%v sid=%d", handled, sid)
		}

		// A data message with arbitrary mux fields.
		dm := NewMessage("EVENT").Set("attr", "a")
		if stream != "" {
			dm.Set(FieldStream, stream)
		}
		if win != "" {
			dm.Set(FieldWindow, win)
		}
		sid, handled := x.Accept(dm)
		if handled {
			t.Fatal("data message reported as transport-only")
		}
		if _, ok := dm.Fields[FieldStream]; ok {
			t.Fatal("_stream survived Accept")
		}
		if _, ok := dm.Fields[FieldWindow]; ok {
			t.Fatal("_win survived Accept")
		}
		if sid > maxStreamID {
			t.Fatalf("Accept returned out-of-range stream %d", sid)
		}

		x.mu.Lock()
		defer x.mu.Unlock()
		for s, v := range x.send {
			if s == 0 || s > maxStreamID {
				t.Fatalf("send window accounted for invalid stream %d", s)
			}
			if w := x.winFor(s); v > w {
				t.Fatalf("send[%d] = %d exceeds initial window %d", s, v, w)
			}
		}
		for s := range x.pending {
			if s == 0 || s > maxStreamID {
				t.Fatalf("receive accounting for invalid stream %d", s)
			}
		}
	})
}
