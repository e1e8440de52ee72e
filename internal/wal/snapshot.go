package wal

import (
	"fmt"
	"hash/crc32"

	"probdedup/internal/core"
	"probdedup/internal/decision"
	"probdedup/internal/ssr"
	"probdedup/internal/verify"
)

// snapMagic versions the snapshot format; a future layout change gets
// a new magic and a fallback reader. Version 2 lists only M and P
// pairs. Version 1 also listed the live U pairs of its time; they are
// dropped on decode, since a U pair is no longer state (DetectorState).
const (
	snapMagic   = "PDSNAPv2"
	snapMagicV1 = "PDSNAPv1"
)

// EncodeSnapshot serializes a detector state as one self-verifying
// binary snapshot: magic, the operation sequence number the state
// covers, the state body, and a trailing CRC32 over everything
// preceding it. The format is compact and bit-exact — probabilities
// and similarities are stored as raw float64 bits, so a decoded
// snapshot restores the exact state it was taken from.
func EncodeSnapshot(st *core.DetectorState, seq uint64) []byte {
	e := &encoder{buf: make([]byte, 0, 1024)}
	e.buf = append(e.buf, snapMagic...)
	e.u64(seq)
	e.uvarint(uint64(len(st.Schema)))
	for _, s := range st.Schema {
		e.str(s)
	}
	e.uvarint(uint64(len(st.Residents)))
	for _, x := range st.Residents {
		e.xtuple(x)
	}
	e.uvarint(uint64(len(st.Pairs)))
	for _, m := range st.Pairs {
		e.str(m.Pair.A)
		e.str(m.Pair.B)
		e.f64(m.Sim)
		e.u8(byte(m.Class))
	}
	e.uvarint(uint64(st.Compared))
	e.uvarint(uint64(st.Dropped))
	if st.Epoch == nil {
		e.u8(0)
	} else {
		e.u8(1)
		ep := st.Epoch
		e.uvarint(uint64(ep.Epoch))
		e.uvarint(uint64(ep.K))
		e.uvarint(uint64(ep.Drifted))
		e.uvarint(uint64(len(ep.Centroids)))
		for _, c := range ep.Centroids {
			e.f64(c)
		}
		e.uvarint(uint64(len(ep.EmbeddingKeys)))
		for _, k := range ep.EmbeddingKeys {
			e.str(k)
		}
		e.uvarint(uint64(len(ep.Arrivals)))
		for _, id := range ep.Arrivals {
			e.str(id)
		}
		e.uvarint(uint64(len(ep.Labels)))
		for _, l := range ep.Labels {
			e.uvarint(uint64(l))
		}
	}
	e.u32(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// DecodeSnapshot parses and verifies a binary snapshot, returning the
// detector state and the operation sequence number it covers. The
// trailing CRC is checked before any field is interpreted, so a
// corrupted snapshot fails loudly instead of restoring silently wrong
// state; structural validation here plus the semantic validation in
// core.RestoreDetector means arbitrary input errors out, never panics.
func DecodeSnapshot(data []byte) (*core.DetectorState, uint64, error) {
	if len(data) < len(snapMagic)+8+4 {
		return nil, 0, fmt.Errorf("wal: snapshot too short (%d bytes)", len(data))
	}
	v1 := string(data[:len(snapMagic)]) == snapMagicV1
	if !v1 && string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("wal: snapshot has bad magic %q", data[:len(snapMagic)])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	d := &decoder{buf: data, off: len(data) - 4}
	if got, want := d.u32(), crc32.ChecksumIEEE(body); got != want {
		return nil, 0, fmt.Errorf("wal: snapshot CRC mismatch (got %08x, want %08x)", got, want)
	}
	_ = tail

	d = &decoder{buf: body, off: len(snapMagic)}
	seq := d.u64()
	st := &core.DetectorState{}
	nschema := d.count(1)
	for i := 0; i < nschema && d.err == nil; i++ {
		st.Schema = append(st.Schema, d.str())
	}
	nres := d.count(2) // minimal tuple: empty ID + zero alternatives
	nattrs := len(st.Schema)
	for i := 0; i < nres && d.err == nil; i++ {
		st.Residents = append(st.Residents, d.xtuple(nattrs))
	}
	npairs := d.count(11) // two 1-byte IDs + sim + class minimum
	for i := 0; i < npairs && d.err == nil; i++ {
		a, b := d.str(), d.str()
		sim := d.f64()
		class := d.u8()
		if class > byte(decision.M) || class == byte(decision.U) && !v1 {
			d.fail("pair of class %d in a snapshot of M and P pairs", class)
			break
		}
		if class == byte(decision.U) {
			continue
		}
		st.Pairs = append(st.Pairs, core.Match{
			Pair:  verify.Pair{A: a, B: b},
			Sim:   sim,
			Class: decision.Class(class),
		})
	}
	st.Compared = int(d.uvarint())
	st.Dropped = int(d.uvarint())
	if d.u8() == 1 {
		ep := &ssr.EpochState{
			Epoch:   int(d.uvarint()),
			K:       int(d.uvarint()),
			Drifted: int(d.uvarint()),
		}
		ncent := d.count(8)
		for i := 0; i < ncent && d.err == nil; i++ {
			ep.Centroids = append(ep.Centroids, d.f64())
		}
		nkeys := d.count(1)
		for i := 0; i < nkeys && d.err == nil; i++ {
			ep.EmbeddingKeys = append(ep.EmbeddingKeys, d.str())
		}
		narr := d.count(1)
		for i := 0; i < narr && d.err == nil; i++ {
			ep.Arrivals = append(ep.Arrivals, d.str())
		}
		nlab := d.count(1)
		for i := 0; i < nlab && d.err == nil; i++ {
			ep.Labels = append(ep.Labels, int(d.uvarint()))
		}
		st.Epoch = ep
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	if d.off != len(body) {
		return nil, 0, fmt.Errorf("wal: snapshot has %d trailing bytes", len(body)-d.off)
	}
	return st, seq, nil
}
