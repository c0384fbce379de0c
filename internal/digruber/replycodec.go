package digruber

import (
	"sync/atomic"

	"digruber/internal/gruber"
	"digruber/internal/wire"
)

// QueryReply is the one body large enough for gob's reflection to set
// what a decision costs — 300 elements of five fields, both ways — so it
// carries wire's value hook: AppendGobValue and ReadGobValue write and
// read the bytes gob itself writes for a QueryReply, field by field in
// the order wireschema.lock records. TestQueryReplyValueMatchesGob and
// FuzzQueryReplyValue hold them to gob, which stays the path for every
// value ReadGobValue declines.

// AppendGobValue appends r's gob value: each field that is not its zero
// value as its distance from the field written before it and then its
// value, a zero byte to end each struct. gob leaves out an empty slice
// as it does a nil one, and -0.0 as it does 0.
func (r QueryReply) AppendGobValue(b []byte) []byte {
	if len(r.Loads) > 0 {
		b = wire.AppendGobUint(append(b, 1), uint64(len(r.Loads)))
		for i := range r.Loads {
			b = appendSiteLoad(b, &r.Loads[i])
		}
	}
	return append(b, 0)
}

func appendSiteLoad(b []byte, l *gruber.SiteLoad) []byte {
	at := -1 // the field written last
	if l.Name != "" {
		b = wire.AppendGobString(append(b, byte(0-at)), l.Name)
		at = 0
	}
	if l.TotalCPUs != 0 {
		b = wire.AppendGobInt(append(b, byte(1-at)), int64(l.TotalCPUs))
		at = 1
	}
	if l.EstFreeCPUs != 0 {
		b = wire.AppendGobInt(append(b, byte(2-at)), int64(l.EstFreeCPUs))
		at = 2
	}
	if l.Headroom != 0 {
		b = wire.AppendGobFloat(append(b, byte(3-at)), l.Headroom)
		at = 3
	}
	if l.TargetGap != 0 {
		b = wire.AppendGobFloat(append(b, byte(4-at)), l.TargetGap)
	}
	return append(b, 0)
}

// replyLoads is the storage of the two 300-element slices a two-call
// decision builds and drops: the engine's result, which the Query handler
// takes here and puts back once its reply is encoded, and the loads
// ReadGobValue decodes, which Client.Schedule puts back once it has
// selected. Anyone else who decodes a QueryReply keeps its Loads, as
// before (DESIGN.md "Who owns a buffer").
var replyLoads wire.SliceList[gruber.SiteLoad]

// replyNames is the site names of the last reply ReadGobValue read whose
// names were not all already here. A decision point answers every query
// with the same sites in the same order, so a submission host's replies
// share one set of name strings and not 300 new ones each.
var replyNames atomic.Pointer[[]string]

// ReadGobValue sets r from the gob value b if b is what AppendGobValue
// writes for some reply — every field present is non-zero and in order,
// every integer in its shortest form, nothing after the last terminator
// — and r holds no loads yet (gob decodes into the elements it finds).
func (r *QueryReply) ReadGobValue(b []byte) bool {
	if r.Loads != nil || len(b) == 0 {
		return false
	}
	if len(b) == 1 {
		return b[0] == 0 // no loads
	}
	n, width := wire.ReadGobUint(b[1:])
	i := 1 + width
	if b[0] != 1 || width == 0 || n == 0 || n > uint64(len(b)-i) {
		return false
	}
	// n is the sender's claim. A load with a name and a CPU count is
	// over eight bytes, so room for that many of what is left holds a
	// real reply in one allocation and a false claim to six times its
	// own size; narrower loads grow the slice as they arrive.
	loads := replyLoads.Take(min(int(n), (len(b)-i)/8+1))
	var known []string
	if p := replyNames.Load(); p != nil {
		known = *p
	}
	allKnown := true
	for k := 0; k < int(n); k++ {
		loads = append(loads, gruber.SiteLoad{})
		var name []byte
		if name, i = readSiteLoad(b, i, &loads[k]); i < 0 {
			replyLoads.Put(loads)
			return false
		}
		if k < len(known) && known[k] == string(name) {
			loads[k].Name = known[k]
		} else {
			loads[k].Name = string(name)
			allKnown = false
		}
	}
	if i != len(b)-1 || b[i] != 0 {
		replyLoads.Put(loads)
		return false
	}
	if !allKnown {
		names := make([]string, len(loads))
		for k := range loads {
			names[k] = loads[k].Name
		}
		replyNames.Store(&names)
	}
	r.Loads = loads
	return true
}

// readSiteLoad reads the load that starts at b[i] into l, but for its
// name, which it returns as bytes of b beside the index of what follows
// the load: -1 if the load is not as appendSiteLoad writes one.
func readSiteLoad(b []byte, i int, l *gruber.SiteLoad) (name []byte, next int) {
	at := -1
	for i < len(b) {
		delta := b[i]
		if delta == 0 {
			return name, i + 1
		}
		if delta > 5 {
			break
		}
		at += int(delta)
		// Every field opens with an unsigned integer: the name's length,
		// an int's folded sign and magnitude, a float's reversed bits.
		if i++; i == len(b) {
			break
		}
		u := uint64(b[i])
		if u < 0x80 {
			i++
		} else {
			var width int
			if u, width = wire.ReadGobUint(b[i:]); width == 0 {
				break
			}
			i += width
		}
		if u == 0 {
			break // gob writes no zero field
		}
		switch at {
		case 0:
			if u > uint64(len(b)-i) {
				return nil, -1
			}
			name, i = b[i:i+int(u)], i+int(u)
		case 1, 2:
			v := wire.GobInt(u)
			if int64(int(v)) != v {
				return nil, -1 // gob refuses what an int does not hold
			}
			if at == 1 {
				l.TotalCPUs = int(v)
			} else {
				l.EstFreeCPUs = int(v)
			}
		case 3, 4:
			v := wire.GobFloat(u)
			if v == 0 {
				return nil, -1 // gob writes -0.0 no more than 0
			}
			if at == 3 {
				l.Headroom = v
			} else {
				l.TargetGap = v
			}
		default:
			return nil, -1
		}
	}
	return nil, -1
}
