package dewey

import (
	"encoding/binary"
	"fmt"
)

// Binary codec for Dewey IDs. The encoding is a sequence of unsigned
// varints, one per component, preceded by a varint length. The codec is used
// by the store's persistence layer; it is not order-preserving at the byte
// level.

// AppendBinary appends the binary encoding of d to dst and returns the
// extended slice.
func AppendBinary(dst []byte, d ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d)))
	for _, c := range d {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// DecodeBinary decodes an ID from the front of buf, returning the ID and the
// number of bytes consumed.
func DecodeBinary(buf []byte) (ID, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("%w: truncated length", ErrBadDewey)
	}
	// Each component occupies at least one byte, so a length exceeding the
	// remaining input is hostile — reject it before allocating.
	if n > uint64(len(buf)-sz) {
		return nil, 0, fmt.Errorf("%w: length %d exceeds input", ErrBadDewey, n)
	}
	off := sz
	id := make(ID, n)
	for i := range id {
		c, s := binary.Uvarint(buf[off:])
		if s <= 0 || c == 0 || c > 0xFFFFFFFF {
			return nil, 0, fmt.Errorf("%w: truncated component", ErrBadDewey)
		}
		id[i] = uint32(c)
		off += s
	}
	return id, off, nil
}
