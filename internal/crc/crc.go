// Package crc implements the CRC-32C checksum used by eFactory and the
// baselines for object integrity verification (paper §4.2.1: a 32-bit CRC
// of the value is stored in the object metadata).
//
// It is hash/crc32 with the Castagnoli polynomial, which runs on the CPU's
// crc32 instruction where there is one (SSE4.2 on amd64, the CRC32
// instructions on arm64) and on the standard library's slicing-by-8
// elsewhere.
//
// The simulator charges virtual time for checksum computation separately
// (model.Params.CRCPerByte, the paper's software cost); this package only
// does the real arithmetic so that torn writes are actually detected.
package crc

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of data.
func Checksum(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}
