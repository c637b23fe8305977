// Payload: the one payload type of the whole stack (DESIGN.md §10).
//
// A Payload is an immutable, refcounted chain of byte spans. Every layer —
// net::Message, the TCP stack's segments, VIA descriptors' logical
// contents, dc::DataBuffer, the vizapp filters — carries the same type, so
// "who copied the bytes" stops being an assumption smeared into closed-form
// per-byte costs and becomes an explicit, counted event (mem/ledger.h).
//
// Invariants:
//  * Immutable after construction. slice()/concat() share the underlying
//    storage — they adjust (storage, offset, length) views and refcounts,
//    never bytes. The only byte-touching operations in the tree are
//    copy_to()/copy_of() here and the BufferPool fill path; svlint rule
//    SV008 enforces that no other layer copies payload bytes.
//  * A span is either *backed* (shared storage, possibly from a registered
//    BufferPool) or *virtual* (a length with no bytes). Virtual spans let
//    timing-only experiments flow through the exact same segmentation and
//    reassembly code as materialized ones: the TCP stack slices an 8-byte
//    virtual header plus a 64 KiB virtual body into MSS pieces just as it
//    would real memory.
//  * All accessors use overflow-safe bounds checks
//    (`len <= size && offset <= size - len`), never `offset + len <= size`,
//    which wraps for adversarial inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sv::mem {

class Payload {
 public:
  /// Shared immutable storage for one backed span.
  using Storage = std::shared_ptr<const std::vector<std::byte>>;

  /// Empty payload (zero bytes, zero spans).
  Payload() = default;

  /// A length-only payload: no bytes exist, only timing flows. Slicing and
  /// concatenation work exactly as for backed payloads.
  static Payload virtual_bytes(std::uint64_t n);

  /// Wraps existing immutable storage without copying. `registered` marks
  /// storage pinned for DMA (a registered BufferPool or via::MemoryRegion).
  static Payload wrap(Storage bytes, bool registered = false);

  /// The ONLY sanctioned byte copy into a fresh payload (besides the
  /// BufferPool fill path). Layers outside src/mem/ must not copy payload
  /// bytes themselves (svlint SV008); they call this and charge the copy
  /// through mem::charge_copy.
  static Payload copy_of(const std::byte* src, std::size_t n);

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Number of spans in the chain (1 for a freshly wrapped buffer; slicing
  /// and concatenation grow/shrink it without touching bytes).
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// True when every byte is backed by real storage (and the payload is
  /// non-empty). Timing-only payloads — empty or virtual — return false.
  [[nodiscard]] bool materialized() const;

  /// True when the payload is non-empty and every span lives in registered
  /// (DMA-pinned) memory — i.e. a NIC could send it with zero host copies.
  [[nodiscard]] bool registered() const;

  /// Zero-copy sub-range view [offset, offset+len). Shares storage.
  [[nodiscard]] Payload slice(std::uint64_t offset, std::uint64_t len) const;

  /// Zero-copy concatenation: `this` followed by `tail`. Shares storage.
  [[nodiscard]] Payload concat(const Payload& tail) const;

  /// In-place concat(): appends `tail`'s spans to this chain, merging
  /// adjacent views as concat() does, without rebuilding the span vector.
  /// Assembling k parts this way is O(k), not O(k^2).
  Payload& append(const Payload& tail);

  /// Bounds-guarded single-byte read; SV_ASSERT on virtual spans. Walks
  /// the span chain, so reading every byte this way costs O(bytes x
  /// spans); use for_each_span() for that.
  [[nodiscard]] std::byte read_byte(std::uint64_t i) const;

  /// Reads the whole payload in one linear walk: calls
  /// `f(pos, data, n)` for each span in order, where `data` holds the n
  /// bytes at payload offset `pos`. Stops as soon as `f` returns false,
  /// and returns false then. SV_ASSERT on virtual spans, like read_byte().
  template <typename F>
  bool for_each_span(F f) const;

  /// Contiguous view of [offset, offset+len): valid only when the range
  /// falls inside one backed span (SV_ASSERT otherwise). For ranges that
  /// may straddle spans use copy_to().
  [[nodiscard]] const std::byte* contiguous_at(std::uint64_t offset,
                                               std::uint64_t len) const;

  /// Gathers [offset, offset+len) into `dst`. This IS a byte copy: callers
  /// own charging it through the ledger. SV_ASSERT on virtual spans.
  void copy_to(std::uint64_t offset, std::byte* dst, std::uint64_t len) const;

  /// Byte-wise equality of materialized contents (both must be fully
  /// backed and of equal size). Reads, never copies: one memcmp per
  /// overlap of the two chains' spans.
  [[nodiscard]] bool content_equals(const Payload& other) const;

 private:
  struct Span {
    Storage bytes;            // null => virtual span
    std::uint64_t offset = 0; // start within *bytes (0 for virtual)
    std::uint64_t len = 0;
    bool registered = false;
  };

  void append_span(Span s);
  static void check_backed(const Span& s);

  std::vector<Span> spans_;
  std::uint64_t size_ = 0;
};

template <typename F>
bool Payload::for_each_span(F f) const {
  std::uint64_t pos = 0;
  for (const Span& s : spans_) {
    check_backed(s);
    if (!f(pos, s.bytes->data() + s.offset, s.len)) return false;
    pos += s.len;
  }
  return true;
}

/// FIFO byte-stream assembly of Payload chains: the TCP stack pushes
/// payloads into its send stream and pops MSS-sized slices for segments;
/// the receive side pushes in-order segment payloads and pops whole frames.
/// pop() shares storage with what was pushed — no bytes move.
class PayloadQueue {
 public:
  void push(Payload p);
  /// Removes and returns the first `n` bytes (SV_ASSERT n <= bytes()).
  Payload pop(std::uint64_t n);
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] bool empty() const { return bytes_ == 0; }

 private:
  std::vector<Payload> parts_;  // FIFO; front is parts_[head_]
  std::size_t head_ = 0;
  std::uint64_t front_offset_ = 0;  // consumed prefix of the front part
  std::uint64_t bytes_ = 0;
};

}  // namespace sv::mem
