package emio

// Per-block CRC32C checksums for the resilient storage layer. Checksums are
// computed over a block's on-disk image (the little-endian 16-byte record
// stream) at write/enqueue time on the algorithm goroutine, kept in a
// memory-resident sidecar on the File (the on-disk layout is unchanged), and
// verified at the decode point of every read — which covers direct positioned
// reads, write-behind data read back, and prefetch-staged fills alike,
// because all of them funnel through File.readBlockAhead before the payload
// reaches an algorithm.
//
// Verification happens on the algorithm goroutine rather than inside the
// transfer goroutines: the sidecar grows on the algorithm goroutine with each
// append, and the determinism contract wants corruption to surface at the
// logical read that consumes the block, identically under pipeline on/off.

import (
	"encoding/binary"
	"hash/crc32"
)

// castagnoliTable is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64 by hash/crc32).
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// checksumElems returns the CRC32C of payload's on-disk image. On
// little-endian hosts the in-memory image of the slice is the on-disk image
// and the sum is one pass over it; the portable path feeds the encoder's
// reference byte layout record by record, so both paths agree by
// construction with what encodeElems writes.
func checksumElems(payload []Elem) uint32 {
	if bulkCodecUsable() {
		return crc32.Update(0, castagnoliTable, elemBytesView(payload))
	}
	return checksumElemsPortable(payload)
}

// checksumElemsPortable is the reference implementation: encode each record
// through the canonical little-endian layout and feed it to the CRC.
func checksumElemsPortable(payload []Elem) uint32 {
	var raw [elemBytes]byte
	var sum uint32
	for _, e := range payload {
		binary.LittleEndian.PutUint64(raw[0:], uint64(e.Key))
		binary.LittleEndian.PutUint64(raw[8:], uint64(e.Aux))
		sum = crc32.Update(sum, castagnoliTable, raw[:])
	}
	return sum
}
