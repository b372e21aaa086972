#include "common/checksum.h"

#include <array>
#include <cstring>
#include <nmmintrin.h>

namespace varan {

namespace {

constexpr std::uint32_t kCastagnoli = 0x82F63B78u; // reflected

constexpr std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> table = {};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (c >> 1) ^ kCastagnoli : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kTable = makeTable();

using Crc32cFn = std::uint32_t (*)(const void *, std::size_t,
                                   std::uint32_t);

Crc32cFn
pickImplementation()
{
    return crc32cHardwareAvailable()
               ? static_cast<Crc32cFn>(crc32cHardware)
               : static_cast<Crc32cFn>(crc32cSoftware);
}

} // namespace

bool
crc32cHardwareAvailable()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}

std::uint32_t
crc32cSoftware(const void *data, std::size_t len, std::uint32_t crc)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t state = ~crc;
    for (std::size_t i = 0; i < len; ++i)
        state = kTable[(state ^ p[i]) & 0xff] ^ (state >> 8);
    return ~state;
}

__attribute__((target("sse4.2"))) std::uint32_t
crc32cHardware(const void *data, std::size_t len, std::uint32_t crc)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t state = ~crc;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word)); // any alignment
        state = _mm_crc32_u64(state, word);
    }
    auto narrow = static_cast<std::uint32_t>(state);
    for (; len > 0; ++p, --len)
        narrow = _mm_crc32_u8(narrow, *p);
    return ~narrow;
}

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t crc)
{
    static const Crc32cFn impl = pickImplementation();
    return impl(data, len, crc);
}

} // namespace varan
