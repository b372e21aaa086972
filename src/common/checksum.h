/**
 * @file
 * CRC32C (Castagnoli), the one content hash of the event path.
 *
 * Leaders hash write buffers into the stream, followers re-hash their
 * own buffer and compare, remote followers and recorded logs carry the
 * same value, and wire frames checksum their bodies with it. Every
 * side must agree bit for bit, so this is the standard CRC32C
 * (reflected polynomial 0x82F63B78, initial value and final xor
 * 0xFFFFFFFF), never a host-specific function: the SSE4.2 `crc32`
 * instruction when the CPU has it, a table-driven loop that returns
 * the same values otherwise.
 */

#ifndef VARAN_COMMON_CHECKSUM_H
#define VARAN_COMMON_CHECKSUM_H

#include <cstddef>
#include <cstdint>

namespace varan {

/**
 * CRC32C of @p len bytes at @p data. Chains: crc32c(b, crc32c(a))
 * equals the CRC32C of a followed by b. The empty input hashes to 0.
 */
std::uint32_t crc32c(const void *data, std::size_t len,
                     std::uint32_t crc = 0);

/** The table-driven path crc32c() falls back to. */
std::uint32_t crc32cSoftware(const void *data, std::size_t len,
                             std::uint32_t crc = 0);

/** The SSE4.2 path; call only when crc32cHardwareAvailable(). */
std::uint32_t crc32cHardware(const void *data, std::size_t len,
                             std::uint32_t crc = 0);

/** True when this CPU has SSE4.2, i.e. crc32c() uses the instruction. */
bool crc32cHardwareAvailable();

} // namespace varan

#endif // VARAN_COMMON_CHECKSUM_H
