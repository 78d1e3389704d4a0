package wire

import "encoding/binary"

// Append-style encoding: every wire structure can be serialized into a
// caller-owned scratch buffer, so the transports' hot paths (PUT,
// PutBatch, pipelined mux frames) reuse one arena per connection instead
// of allocating per op. Each payload has this one encoder and one
// Decode*Into decoder. Each Append* call appends exactly *Size bytes and
// returns the extended slice; callers reslice their scratch to [:0] and
// keep the capacity across calls (or pass nil for a one-off buffer).

// EncodedSize returns the exact number of bytes AppendEncode will append.
func (m *Msg) EncodedSize() int {
	n := headerLen + len(m.Key) + len(m.Value)
	if m.Trace != 0 {
		n += traceTrailerLen
	}
	return n
}

// AppendEncode appends m's wire encoding to b (see Encode for the
// format) and returns the extended slice.
func (m *Msg) AppendEncode(b []byte) []byte {
	base := len(b)
	b = appendZeros(b, m.EncodedSize())
	o := b[base:]
	o[0] = m.Type
	o[1] = m.Status
	o[2] = m.Note &^ NoteTraced
	le := binary.LittleEndian
	le.PutUint32(o[3:], m.Token)
	le.PutUint32(o[7:], m.RKey)
	le.PutUint32(o[11:], m.Crc)
	le.PutUint64(o[15:], m.Off)
	le.PutUint64(o[23:], m.Len)
	le.PutUint32(o[31:], m.KLen)
	le.PutUint32(o[35:], uint32(len(m.Key)))
	le.PutUint32(o[39:], uint32(len(m.Value)))
	copy(o[headerLen:], m.Key)
	copy(o[headerLen+len(m.Key):], m.Value)
	if m.Trace != 0 {
		o[2] |= NoteTraced
		le.PutUint64(o[len(o)-traceTrailerLen:], m.Trace)
	}
	return b
}

// PutOpsSize returns the encoded size of a TPutBatch payload in the
// allocation-only (inline false) or the inline layout.
func PutOpsSize(ops []PutOp, inline bool) int {
	n := 4
	for _, op := range ops {
		n += 12 + len(op.Key)
		if inline {
			n += len(op.Value)
		}
	}
	return n
}

// AppendPutOps appends a TPutBatch payload to b. In the inline layout
// each op's Value follows its key, and its VLen field is len(Value).
func AppendPutOps(b []byte, ops []PutOp, inline bool) []byte {
	base := len(b)
	b = appendZeros(b, PutOpsSize(ops, inline))
	o := b[base:]
	le := binary.LittleEndian
	le.PutUint32(o, uint32(len(ops)))
	p := 4
	for _, op := range ops {
		vlen := op.VLen
		if inline {
			vlen = len(op.Value)
		}
		le.PutUint32(o[p:], op.Crc)
		le.PutUint32(o[p+4:], uint32(vlen))
		le.PutUint32(o[p+8:], uint32(len(op.Key)))
		p += 12 + copy(o[p+12:], op.Key)
		if inline {
			p += copy(o[p:], op.Value)
		}
	}
	return b
}

// PutGrantsSize returns the encoded size of a TPutBatchResp payload.
func PutGrantsSize(gs []PutGrant) int { return 4 + 17*len(gs) }

// AppendPutGrants appends a TPutBatchResp payload to b.
func AppendPutGrants(b []byte, gs []PutGrant) []byte {
	base := len(b)
	b = appendZeros(b, PutGrantsSize(gs))
	o := b[base:]
	le := binary.LittleEndian
	le.PutUint32(o, uint32(len(gs)))
	p := 4
	for _, g := range gs {
		o[p] = g.Status
		le.PutUint32(o[p+1:], g.RKey)
		le.PutUint64(o[p+5:], g.Off)
		le.PutUint32(o[p+13:], g.Len)
		p += 17
	}
	return b
}

// GetOpsSize returns the encoded size of a TGetBatch payload.
func GetOpsSize(ops []GetOp) int {
	n := 4
	for _, op := range ops {
		n += 8 + len(op.Key)
	}
	return n
}

// AppendGetOps appends a TGetBatch payload to b.
func AppendGetOps(b []byte, ops []GetOp) []byte {
	base := len(b)
	b = appendZeros(b, GetOpsSize(ops))
	o := b[base:]
	le := binary.LittleEndian
	le.PutUint32(o, uint32(len(ops)))
	p := 4
	for _, op := range ops {
		le.PutUint32(o[p:], op.Slot)
		le.PutUint32(o[p+4:], uint32(len(op.Key)))
		copy(o[p+8:], op.Key)
		p += 8 + len(op.Key)
	}
	return b
}

// GetGrantsSize returns the encoded size of a TGetResults payload in the
// grant-only (inline false) or the inline layout.
func GetGrantsSize(gs []GetGrant, inline bool) int {
	if !inline {
		return 4 + getGrantSize*len(gs)
	}
	n := 4 + (getGrantSize+getGrantVLen)*len(gs)
	for i := range gs {
		if gs[i].Flags&GrantValue != 0 {
			n += len(gs[i].Value)
		}
	}
	return n
}

// AppendGetGrants appends a TGetResults payload to b. In the inline
// layout each grant names len(Value), and the Values of the grants
// flagged GrantValue follow the array in op order.
func AppendGetGrants(b []byte, gs []GetGrant, inline bool) []byte {
	base := len(b)
	b = appendZeros(b, GetGrantsSize(gs, inline))
	o := b[base:]
	le := binary.LittleEndian
	le.PutUint32(o, uint32(len(gs)))
	size := getGrantSize
	if inline {
		size += getGrantVLen
	}
	p, v := 4, 4+size*len(gs)
	for i := range gs {
		g := &gs[i]
		o[p] = g.Status
		o[p+1] = g.Flags
		le.PutUint32(o[p+2:], g.RKey)
		le.PutUint32(o[p+6:], g.Slot)
		le.PutUint32(o[p+10:], g.Len)
		le.PutUint32(o[p+14:], g.KLen)
		le.PutUint64(o[p+18:], g.Off)
		le.PutUint64(o[p+26:], g.Seq)
		if inline && g.Flags&GrantValue != 0 {
			le.PutUint32(o[p+getGrantSize:], uint32(len(g.Value)))
			v += copy(o[v:], g.Value)
		}
		p += size
	}
	return b
}

// appendZeros grows b by n writable bytes. Appending (rather than
// make+copy) lets the backing array amortize: once a scratch buffer has
// seen its peak frame size it never reallocates again.
func appendZeros(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[: len(b)+n : cap(b)]
	}
	return append(b, make([]byte, n)...)
}
