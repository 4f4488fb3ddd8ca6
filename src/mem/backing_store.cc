#include "mem/backing_store.hh"

#include <algorithm>

#include "mem/address_map.hh"

namespace wwt::mem
{

// slotOf() folds chunk bit 14 and up onto the low bits because that
// is where consecutive processors' private regions differ.
static_assert((AddressMap::kPrivStride >> BackingStore::kChunkBits) ==
              Addr{1} << 14);

char*
BackingStore::chunkPtr(Addr chunk)
{
    auto& slot = chunks_[chunk];
    if (!slot) {
        slot = std::make_unique<char[]>(kChunkBytes);
        std::memset(slot.get(), 0, kChunkBytes);
    }
    return slot.get();
}

void
BackingStore::readBytes(void* dst, Addr src, std::size_t n)
{
    auto* out = static_cast<char*>(dst);
    while (n > 0) {
        std::size_t in_chunk = static_cast<std::size_t>(
            kChunkBytes - (src & kChunkMask));
        std::size_t take = std::min(n, in_chunk);
        std::memcpy(out, ptr(src), take);
        out += take;
        src += take;
        n -= take;
    }
}

void
BackingStore::writeBytes(Addr dst, const void* src, std::size_t n)
{
    const auto* in = static_cast<const char*>(src);
    while (n > 0) {
        std::size_t in_chunk = static_cast<std::size_t>(
            kChunkBytes - (dst & kChunkMask));
        std::size_t take = std::min(n, in_chunk);
        std::memcpy(ptr(dst), in, take);
        in += take;
        dst += take;
        n -= take;
    }
}

void
BackingStore::copy(Addr dst, Addr src, std::size_t n)
{
    char buf[256];
    while (n > 0) {
        std::size_t take = std::min(n, sizeof(buf));
        readBytes(buf, src, take);
        writeBytes(dst, buf, take);
        src += take;
        dst += take;
        n -= take;
    }
}

} // namespace wwt::mem
