// Unit tests for the zero-copy payload layer (DESIGN.md §10): Payload view
// semantics and refcount lifecycle, PayloadQueue streaming, BufferPool
// reuse, and the overflow-safe bounds contract.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "mem/buffer_pool.h"
#include "mem/payload.h"
#include "sim/simulation.h"

namespace sv::mem {
namespace {

Payload patterned(std::size_t n, std::byte start = std::byte{0}) {
  std::vector<std::byte> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>((std::to_integer<unsigned>(start) + i) &
                                      0xFF);
  }
  return Payload::copy_of(bytes.data(), n);
}

TEST(PayloadTest, EmptyAndVirtual) {
  const Payload empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.materialized());

  const Payload v = Payload::virtual_bytes(4096);
  EXPECT_EQ(v.size(), 4096u);
  EXPECT_FALSE(v.materialized());
  EXPECT_FALSE(v.registered());
  // Virtual payloads slice and concat like backed ones — same code path.
  const Payload part = v.slice(1000, 96);
  EXPECT_EQ(part.size(), 96u);
  EXPECT_FALSE(part.materialized());
}

TEST(PayloadTest, SliceSharesStorageWithoutCopying) {
  auto storage = std::make_shared<const std::vector<std::byte>>(
      std::vector<std::byte>(256, std::byte{0x5A}));
  const std::byte* raw = storage->data();
  const Payload p = Payload::wrap(storage);
  const Payload s = p.slice(16, 64);
  EXPECT_EQ(s.size(), 64u);
  EXPECT_TRUE(s.materialized());
  // Same underlying bytes, not a copy.
  EXPECT_EQ(s.contiguous_at(0, 64), raw + 16);
  // Slicing bumped the refcount (wrapper + slice hold it; local variable
  // `storage` is the third).
  EXPECT_EQ(storage.use_count(), 3);
}

TEST(PayloadTest, RefcountKeepsStorageAliveThroughSliceChains) {
  bool freed = false;
  Payload s;
  {
    auto* vec = new std::vector<std::byte>(128, std::byte{0x11});
    Payload::Storage storage(vec, [&freed](const std::vector<std::byte>* p) {
      freed = true;
      delete p;
    });
    Payload p = Payload::wrap(std::move(storage));
    s = p.slice(32, 32).slice(8, 8);  // second-order view
  }
  // The wrapping payload and intermediate views are gone; the final slice
  // alone keeps the bytes alive.
  EXPECT_FALSE(freed);
  EXPECT_EQ(std::to_integer<int>(s.read_byte(0)), 0x11);
  s = Payload{};
  EXPECT_TRUE(freed);
}

TEST(PayloadTest, ConcatChainsAndReadsAcrossSpans) {
  const Payload a = patterned(100, std::byte{0});
  const Payload b = patterned(50, std::byte{100});
  const Payload ab = a.concat(b);
  EXPECT_EQ(ab.size(), 150u);
  EXPECT_EQ(ab.span_count(), 2u);
  for (std::uint64_t i = 0; i < 150; ++i) {
    EXPECT_EQ(std::to_integer<unsigned>(ab.read_byte(i)), i & 0xFF);
  }
  // copy_to gathers across the span boundary.
  std::vector<std::byte> dst(150);
  ab.copy_to(0, dst.data(), 150);
  for (std::uint64_t i = 0; i < 150; ++i) {
    EXPECT_EQ(std::to_integer<unsigned>(dst[i]), i & 0xFF);
  }
  EXPECT_TRUE(ab.content_equals(patterned(150)));
  EXPECT_FALSE(ab.content_equals(patterned(150, std::byte{1})));
}

/// A payload of `flat`'s bytes split into separately stored spans at
/// `cuts` (ascending offsets), plus the flat oracle it must read as.
Payload chained(const std::vector<std::byte>& flat,
                const std::vector<std::size_t>& cuts) {
  Payload out;
  std::size_t from = 0;
  for (std::size_t to : cuts) {
    out = out.concat(Payload::copy_of(flat.data() + from, to - from));
    from = to;
  }
  return out.concat(Payload::copy_of(flat.data() + from, flat.size() - from));
}

TEST(PayloadTest, MultiSpanPayloadsMatchAFlatOracle) {
  std::vector<std::byte> flat(4096);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    flat[i] = static_cast<std::byte>((i * 131 + 7) & 0xFF);
  }
  const Payload whole = Payload::copy_of(flat.data(), flat.size());
  const Payload a = chained(flat, {100, 1500, 1501, 3000});
  const Payload b = chained(flat, {7, 2048, 4000});  // other boundaries
  ASSERT_EQ(a.span_count(), 5u);
  ASSERT_EQ(b.span_count(), 4u);

  // The span walk reads exactly the oracle's bytes, in order.
  std::vector<std::byte> walked;
  EXPECT_TRUE(a.for_each_span(
      [&](std::uint64_t pos, const std::byte* data, std::uint64_t n) {
        EXPECT_EQ(pos, walked.size());
        walked.insert(walked.end(), data, data + n);
        return true;
      }));
  EXPECT_EQ(walked, flat);

  // Equal contents compare equal whatever the span boundaries.
  EXPECT_TRUE(a.content_equals(whole));
  EXPECT_TRUE(whole.content_equals(a));
  EXPECT_TRUE(a.content_equals(b));
  EXPECT_TRUE(b.content_equals(a));

  // A difference in the last byte of a later span is found.
  std::vector<std::byte> last = flat;
  last[2999] ^= std::byte{1};  // last byte of a's fourth span
  EXPECT_FALSE(a.content_equals(chained(last, {100, 1500, 1501, 3000})));
  EXPECT_FALSE(b.content_equals(chained(last, {100, 1500, 1501, 3000})));
  std::vector<std::byte> tail = flat;
  tail.back() ^= std::byte{0x80};  // very last byte
  EXPECT_FALSE(a.content_equals(chained(tail, {5, 4095})));
  EXPECT_FALSE(chained(tail, {5, 4095}).content_equals(whole));

  // 64 KiB and more: long overlaps that differ only in the very last byte.
  std::vector<std::byte> big(64 * 1024 + 300);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>((i * 131 + 7) & 0xFF);
  }
  std::vector<std::byte> big_tail = big;
  big_tail.back() ^= std::byte{0x01};
  const Payload big_whole = Payload::copy_of(big.data(), big.size());
  const Payload big_chain = chained(big, {1460, 40'000, 65'000});
  EXPECT_TRUE(big_chain.content_equals(big_whole));
  EXPECT_TRUE(big_whole.content_equals(big_chain));
  EXPECT_FALSE(
      big_whole.content_equals(Payload::copy_of(big_tail.data(), big.size())));
  EXPECT_FALSE(big_chain.content_equals(chained(big_tail, {3, 33'333})));
  EXPECT_FALSE(chained(big_tail, {65'535}).content_equals(big_chain));

  // A walk that stops early reports it.
  int calls = 0;
  EXPECT_FALSE(a.for_each_span([&](std::uint64_t, const std::byte*,
                                   std::uint64_t) { return ++calls < 2; }));
  EXPECT_EQ(calls, 2);

  // Virtual spans are still rejected, as by read_byte().
  const Payload half_virtual = a.concat(Payload::virtual_bytes(16));
  EXPECT_FALSE(half_virtual.content_equals(
      whole.concat(Payload::virtual_bytes(16))));
  EXPECT_THROW((void)half_virtual.for_each_span(
                   [](std::uint64_t, const std::byte*, std::uint64_t) {
                     return true;
                   }),
               CheckFailure);
}

TEST(PayloadTest, AdjacentSlicesOfSameStorageMerge) {
  const Payload p = patterned(1000);
  // Reassembling consecutive slices (what the TCP receive stream does)
  // collapses back to a single span over the shared storage.
  const Payload joined = p.slice(0, 400).concat(p.slice(400, 600));
  EXPECT_EQ(joined.span_count(), 1u);
  EXPECT_TRUE(joined.content_equals(p));
}

TEST(PayloadTest, BoundsChecksRejectOverflowingRanges) {
  const Payload p = patterned(100);
  EXPECT_THROW(p.slice(0, 101), CheckFailure);
  EXPECT_THROW(p.slice(101, 0), CheckFailure);
  // offset + len wraps std::uint64_t: a naive `offset + len <= size` check
  // would pass this; the subtraction form must reject it.
  const std::uint64_t huge = ~std::uint64_t{0} - 10;
  EXPECT_THROW(p.slice(huge, 50), CheckFailure);
  EXPECT_THROW((void)p.read_byte(100), CheckFailure);
  std::byte sink[8];
  EXPECT_THROW(p.copy_to(huge, sink, 50), CheckFailure);
  EXPECT_THROW((void)p.contiguous_at(96, 8), CheckFailure);
}

TEST(PayloadQueueTest, PopsSlicesAcrossPushBoundaries) {
  PayloadQueue q;
  q.push(patterned(100, std::byte{0}));
  q.push(patterned(100, std::byte{100}));
  EXPECT_EQ(q.bytes(), 200u);
  const Payload first = q.pop(150);  // straddles both pushes
  EXPECT_EQ(first.size(), 150u);
  EXPECT_EQ(q.bytes(), 50u);
  const Payload rest = q.pop(50);
  EXPECT_TRUE(q.empty());
  const Payload all = first.concat(rest);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(std::to_integer<unsigned>(all.read_byte(i)), i & 0xFF);
  }
}

TEST(PayloadQueueTest, PopsAWholeWindowAcrossMssSizedPushesInOnePass) {
  // The TCP receive path: 45 in-order MSS-sized segments of one sender
  // buffer, drained by a single 64 KiB read.
  const Payload stream = patterned(45 * 1460);
  PayloadQueue q;
  for (std::uint64_t k = 0; k < 45; ++k) q.push(stream.slice(k * 1460, 1460));
  const Payload frame = q.pop(64 * 1024);
  EXPECT_EQ(frame.size(), 64u * 1024);
  EXPECT_EQ(frame.span_count(), 1u);  // adjacent views merged back
  EXPECT_TRUE(frame.content_equals(stream.slice(0, 64 * 1024)));
  EXPECT_EQ(q.bytes(), 45u * 1460 - 64 * 1024);
  EXPECT_TRUE(q.pop(q.bytes()).content_equals(
      stream.slice(64 * 1024, 45 * 1460 - 64 * 1024)));
}

TEST(PayloadTest, AppendExtendsInPlaceAndMatchesConcat) {
  const Payload p = patterned(3000);
  Payload built = p.slice(0, 1000);
  built.append(Payload::virtual_bytes(8)).append(p.slice(1000, 500));
  built.append(p.slice(1500, 1500));
  EXPECT_EQ(built.size(), 3008u);
  EXPECT_EQ(built.span_count(), 3u);  // backed, virtual, backed (merged)
  EXPECT_EQ(built.slice(1008, 2000).span_count(), 1u);
  Payload twice = p.slice(0, 100);
  twice.append(twice);  // self-append reads the chain before growing it
  EXPECT_EQ(twice.size(), 200u);
  EXPECT_TRUE(twice.slice(100, 100).content_equals(p.slice(0, 100)));
}

TEST(PayloadQueueTest, MixedVirtualAndBackedStreams) {
  PayloadQueue q;
  q.push(Payload::virtual_bytes(8));
  q.push(patterned(32));
  const Payload frame = q.pop(40);
  EXPECT_EQ(frame.size(), 40u);
  EXPECT_FALSE(frame.materialized());  // header span is virtual
  const Payload body = frame.slice(8, 32);
  EXPECT_TRUE(body.materialized());
  EXPECT_TRUE(body.content_equals(patterned(32)));
}

TEST(BufferPoolTest, SealAndDropReturnsChunkForReuse) {
  BufferPool pool(nullptr, {.label = "t"});
  {
    PooledBuffer buf = pool.acquire(64);
    std::memset(buf.data(), 0x42, buf.size());
    Payload p = std::move(buf).seal();
    EXPECT_TRUE(p.materialized());
    EXPECT_EQ(std::to_integer<int>(p.read_byte(63)), 0x42);
    EXPECT_EQ(pool.free_chunks(), 0u);  // payload still holds the chunk
  }
  EXPECT_EQ(pool.free_chunks(), 1u);  // last view dropped -> recycled
  // A slice outliving its parent payload also pins the chunk.
  Payload keeper;
  {
    keeper = std::move(pool.acquire(64)).seal().slice(10, 4);
  }
  EXPECT_EQ(pool.free_chunks(), 0u);
  keeper = Payload{};
  EXPECT_EQ(pool.free_chunks(), 1u);
}

TEST(BufferPoolTest, UnsealedBufferReturnsToPoolToo) {
  BufferPool pool(nullptr, {.label = "t"});
  { PooledBuffer buf = pool.acquire(128); }
  EXPECT_EQ(pool.free_chunks(), 1u);
}

TEST(BufferPoolTest, ReuseIsLifoAndCounted) {
  sim::Simulation s;
  BufferPool pool(&s.obs(), {.label = "t"});
  { Payload p = std::move(pool.acquire(256)).seal(); }
  { Payload p = std::move(pool.acquire(100)).seal(); }  // fits: reuse
  const auto& reg = s.obs().registry;
  EXPECT_EQ(reg.counter_value("mem.pool_alloc"), 1u);
  EXPECT_EQ(reg.counter_value("mem.pool_reuse"), 1u);
  EXPECT_EQ(reg.counter_value("mem.copies"), 0u);  // pooling never copies
}

TEST(BufferPoolTest, RegisteredPoolChargesRegistrationOnce) {
  sim::Simulation s;
  BufferPool pool(&s.obs(), {.label = "reg", .registered = true});
  Payload p = std::move(pool.acquire(512)).seal();
  EXPECT_TRUE(p.registered());
  EXPECT_TRUE(p.slice(8, 16).registered());
  const auto& reg = s.obs().registry;
  EXPECT_EQ(reg.counter_value("mem.registrations"), 1u);
  EXPECT_EQ(reg.counter_value("mem.registered_bytes"), 512u);
  // Reuse of a registered chunk does not re-register.
  p = Payload{};
  Payload q = std::move(pool.acquire(512)).seal();
  EXPECT_EQ(reg.counter_value("mem.registered_bytes"), 512u);

  BufferPool plain(&s.obs(), {.label = "plain"});
  Payload u = std::move(plain.acquire(64)).seal();
  EXPECT_FALSE(u.registered());
}

}  // namespace
}  // namespace sv::mem
