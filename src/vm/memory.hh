/**
 * @file
 * Flat byte-addressable memory for the VM.
 */

#ifndef VP_VM_MEMORY_HH
#define VP_VM_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace vp::vm {

/**
 * Simple flat little-endian memory.
 *
 * Out-of-range accesses throw MemoryFault; the VM converts this into a
 * faulted exit status. Accesses may be unaligned (the workloads use
 * byte-granularity string buffers).
 */
class Memory
{
  public:
    /** Fault thrown on an out-of-range access. */
    struct Fault : std::runtime_error
    {
        uint64_t addr;
        Fault(uint64_t addr, size_t bytes, size_t size);
    };

    explicit Memory(size_t size_bytes) : mem_(size_bytes, 0) {}

    size_t size() const { return mem_.size(); }

    /** Zero all of memory (fresh run). */
    void clear() { std::fill(mem_.begin(), mem_.end(), 0); }

    /** Copy a blob into memory at @p addr (an empty blob is a no-op:
     *  its data() may be null, which memcpy does not allow). */
    void
    loadImage(uint64_t addr, const std::vector<uint8_t> &image)
    {
        check(addr, image.size());
        if (image.empty())
            return;
        std::memcpy(mem_.data() + addr, image.data(), image.size());
    }

    uint64_t
    read(uint64_t addr, size_t bytes) const
    {
        check(addr, bytes);
        uint64_t value = 0;
        std::memcpy(&value, mem_.data() + addr, bytes);
        return value;
    }

    void
    write(uint64_t addr, uint64_t value, size_t bytes)
    {
        check(addr, bytes);
        std::memcpy(mem_.data() + addr, &value, bytes);
    }

    uint8_t readByte(uint64_t addr) const
    {
        check(addr, 1);
        return mem_[addr];
    }

  private:
    void
    check(uint64_t addr, size_t bytes) const
    {
        if (addr > mem_.size() || bytes > mem_.size() - addr)
            throw Fault(addr, bytes, mem_.size());
    }

    std::vector<uint8_t> mem_;
};

} // namespace vp::vm

#endif // VP_VM_MEMORY_HH
