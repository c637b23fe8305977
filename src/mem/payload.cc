#include "mem/payload.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace sv::mem {

Payload Payload::virtual_bytes(std::uint64_t n) {
  Payload p;
  if (n > 0) p.append_span(Span{nullptr, 0, n, false});
  return p;
}

Payload Payload::wrap(Storage bytes, bool registered) {
  Payload p;
  if (bytes != nullptr && !bytes->empty()) {
    const std::uint64_t n = bytes->size();
    p.append_span(Span{std::move(bytes), 0, n, registered});
  }
  return p;
}

Payload Payload::copy_of(const std::byte* src, std::size_t n) {
  if (n == 0) return {};
  SV_ASSERT(src != nullptr, "Payload::copy_of: null source");
  auto bytes = std::make_shared<std::vector<std::byte>>(src, src + n);
  return wrap(std::move(bytes));
}

bool Payload::materialized() const {
  if (empty()) return false;
  return std::all_of(spans_.begin(), spans_.end(),
                     [](const Span& s) { return s.bytes != nullptr; });
}

bool Payload::registered() const {
  if (empty()) return false;
  return std::all_of(spans_.begin(), spans_.end(), [](const Span& s) {
    return s.bytes != nullptr && s.registered;
  });
}

Payload Payload::slice(std::uint64_t offset, std::uint64_t len) const {
  // Overflow-safe: offset + len can wrap, size() - len cannot.
  SV_ASSERT(len <= size() && offset <= size() - len,
            "Payload::slice out of range");
  Payload out;
  if (len == 0) return out;
  std::uint64_t skip = offset;
  std::uint64_t want = len;
  for (const Span& s : spans_) {
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    const std::uint64_t take = std::min(want, s.len - skip);
    out.append_span(Span{s.bytes, s.offset + skip, take, s.registered});
    skip = 0;
    want -= take;
    if (want == 0) break;
  }
  SV_DCHECK(out.size_ == len, "slice assembled wrong length");
  return out;
}

Payload Payload::concat(const Payload& tail) const {
  Payload out = *this;
  out.append(tail);
  return out;
}

Payload& Payload::append(const Payload& tail) {
  if (&tail == this) return append(Payload(tail));  // spans_ would grow under us
  for (const Span& s : tail.spans_) append_span(s);
  return *this;
}

std::byte Payload::read_byte(std::uint64_t i) const {
  return *contiguous_at(i, 1);
}

const std::byte* Payload::contiguous_at(std::uint64_t offset,
                                        std::uint64_t len) const {
  SV_ASSERT(len <= size() && offset <= size() - len,
            "Payload: read past extent");
  SV_ASSERT(len > 0, "Payload: zero-length contiguous view");
  std::uint64_t skip = offset;
  for (const Span& s : spans_) {
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    check_backed(s);
    SV_ASSERT(len <= s.len - skip,
              "Payload: contiguous view straddles spans (use copy_to)");
    return s.bytes->data() + s.offset + skip;
  }
  SV_ASSERT(false, "Payload: unreachable (bounds already checked)");
  return nullptr;
}

void Payload::copy_to(std::uint64_t offset, std::byte* dst,
                      std::uint64_t len) const {
  SV_ASSERT(len <= size() && offset <= size() - len,
            "Payload::copy_to out of range");
  std::uint64_t skip = offset;
  std::uint64_t want = len;
  for (const Span& s : spans_) {
    if (want == 0) break;
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    SV_ASSERT(s.bytes != nullptr, "Payload::copy_to on a virtual span");
    const std::uint64_t take = std::min(want, s.len - skip);
    const std::byte* src = s.bytes->data() + s.offset + skip;
    dst = std::copy(src, src + take, dst);
    skip = 0;
    want -= take;
  }
}

bool Payload::content_equals(const Payload& other) const {
  if (size() != other.size()) return false;
  if (empty()) return true;
  if (!materialized() || !other.materialized()) return false;
  // Walk both chains at once, comparing the overlap of the current spans,
  // so span boundaries need not line up.
  auto theirs = other.spans_.begin();
  std::uint64_t skip = 0;  // bytes of *theirs already compared
  return for_each_span([&](std::uint64_t /*pos*/, const std::byte* data,
                           std::uint64_t n) {
    while (n > 0) {
      const std::uint64_t take = std::min(n, theirs->len - skip);
      const std::byte* other_data = theirs->bytes->data() + theirs->offset;
      // std::equal over std::byte compares byte by byte in libstdc++;
      // memcmp is the vectorized library compare.
      if (std::memcmp(data, other_data + skip, take) != 0) return false;
      data += take;
      n -= take;
      skip += take;
      if (skip == theirs->len) {
        ++theirs;
        skip = 0;
      }
    }
    return true;
  });
}

void Payload::check_backed(const Span& s) {
  SV_ASSERT(s.bytes != nullptr, "Payload: byte read on a virtual span");
}

void Payload::append_span(Span s) {
  if (s.len == 0) return;
  size_ += s.len;
  // Merge adjacent views of the same storage (a pop/slice boundary that
  // landed mid-buffer) so chains stay short on long streams.
  if (!spans_.empty()) {
    Span& back = spans_.back();
    if (back.bytes != nullptr && back.bytes == s.bytes &&
        back.offset + back.len == s.offset && back.registered == s.registered) {
      back.len += s.len;
      return;
    }
    if (back.bytes == nullptr && s.bytes == nullptr) {
      back.len += s.len;
      return;
    }
  }
  spans_.push_back(std::move(s));
}

void PayloadQueue::push(Payload p) {
  if (p.empty()) return;
  bytes_ += p.size();
  parts_.push_back(std::move(p));
}

Payload PayloadQueue::pop(std::uint64_t n) {
  SV_ASSERT(n <= bytes_, "PayloadQueue::pop past end");
  Payload out;
  std::uint64_t want = n;
  while (want > 0) {
    Payload& front = parts_[head_];
    const std::uint64_t avail = front.size() - front_offset_;
    const std::uint64_t take = std::min(want, avail);
    out.append(front.slice(front_offset_, take));
    front_offset_ += take;
    want -= take;
    bytes_ -= take;
    if (front_offset_ == front.size()) {
      front = Payload{};  // release storage refs promptly
      ++head_;
      front_offset_ = 0;
      if (head_ == parts_.size()) {
        parts_.clear();
        head_ = 0;
      }
    }
  }
  return out;
}

}  // namespace sv::mem
