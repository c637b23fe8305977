#include "sim/process.h"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

#include "common/check.h"
#include "sim/simulation.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
// sv_fiber_switch(save, load): pushes the System V callee-saved state (rbp,
// rbx, r12-r15, MXCSR and the x87 control word) onto the current stack,
// stores rsp to *save, loads rsp from `load` and pops the same frame from
// there. A fresh fiber's first frame returns into sv_fiber_start, which
// calls r13(r12) and never comes back. The switch does not maintain a CET
// shadow stack, so it needs shadow stacks off (the Linux default).
extern "C" void sv_fiber_switch(void** save, void* load);
extern "C" void sv_fiber_start();
asm(R"(
  .pushsection .text
  .p2align 4
  .globl  sv_fiber_switch
  .hidden sv_fiber_switch
  .type   sv_fiber_switch, @function
sv_fiber_switch:
  endbr64
  pushq   %rbp
  pushq   %rbx
  pushq   %r12
  pushq   %r13
  pushq   %r14
  pushq   %r15
  subq    $8, %rsp
  stmxcsr (%rsp)
  fnstcw  4(%rsp)
  movq    %rsp, (%rdi)
  movq    %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw   4(%rsp)
  addq    $8, %rsp
  popq    %r15
  popq    %r14
  popq    %r13
  popq    %r12
  popq    %rbx
  popq    %rbp
  ret
  .size   sv_fiber_switch, .-sv_fiber_switch

  .p2align 4
  .globl  sv_fiber_start
  .hidden sv_fiber_start
  .type   sv_fiber_start, @function
sv_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq    %r12, %rdi
  callq   *%r13
  ud2
  .cfi_endproc
  .size   sv_fiber_start, .-sv_fiber_start
  .popsection
)");
#else
#include <ucontext.h>
#endif

namespace sv::sim {

/// One process's stack (an mmap with a PROT_NONE guard page at its low
/// end) and the saved contexts for switching into and out of it.
class Process::Fiber {
 public:
  explicit Fiber(Process* owner) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    map_bytes_ = page + kStackBytes;
    void* m = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    map_ = static_cast<char*>(m);
    if (mprotect(map_, page, PROT_NONE) != 0) {
      munmap(map_, map_bytes_);
      throw std::bad_alloc();
    }
    stack_ = map_ + page;
#if defined(__x86_64__)
    // The frame sv_fiber_switch pops on the first switch in; the
    // floating-point control state starts as the creator's.
    std::uint32_t mxcsr = 0;
    std::uint16_t fpucw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpucw));
    auto* frame = reinterpret_cast<std::uint64_t*>(stack_ + kStackBytes) - 8;
    frame[0] = mxcsr | (std::uint64_t{fpucw} << 32);
    frame[1] = 0;                                                    // r15
    frame[2] = 0;                                                    // r14
    frame[3] = reinterpret_cast<std::uintptr_t>(&Process::fiber_main);  // r13
    frame[4] = reinterpret_cast<std::uintptr_t>(owner);              // r12
    frame[5] = 0;                                                    // rbx
    frame[6] = 0;                                                    // rbp
    frame[7] = reinterpret_cast<std::uintptr_t>(&sv_fiber_start);   // ret
    sp_ = frame;
#else
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_;
    ctx_.uc_stack.ss_size = kStackBytes;
    ctx_.uc_link = nullptr;
    const auto bits = static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(owner));
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&ucontext_entry), 2,
                static_cast<unsigned>(bits >> 32), static_cast<unsigned>(bits));
#endif
  }

  ~Fiber() { munmap(map_, map_bytes_); }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Scheduler side: runs the fiber until it switches back out.
  void enter() {
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, stack_, kStackBytes);
#endif
#if defined(__x86_64__)
    sv_fiber_switch(&caller_sp_, sp_);
#else
    swapcontext(&caller_ctx_, &ctx_);
#endif
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  }

  /// Fiber side: switches back to whoever entered; returns on the next
  /// enter().
  void leave() {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(&fake_stack_, caller_bottom_,
                                   caller_size_);
#endif
    switch_out();
    arrived();
  }

  /// Fiber side: the final switch out; the fiber is never entered again.
  [[noreturn]] void finish() {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(nullptr, caller_bottom_, caller_size_);
#endif
    switch_out();
    __builtin_unreachable();
  }

  /// Fiber side: completes every switch in, including the first.
  void arrived() {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack_, &caller_bottom_,
                                    &caller_size_);
#endif
  }

 private:
  void switch_out() {
#if defined(__x86_64__)
    sv_fiber_switch(&sp_, caller_sp_);
#else
    swapcontext(&ctx_, &caller_ctx_);
#endif
  }

#if !defined(__x86_64__)
  // makecontext passes only int arguments: the owner arrives in two halves.
  static void ucontext_entry(unsigned hi, unsigned lo) {
    const std::uint64_t bits = (std::uint64_t{hi} << 32) | lo;
    Process::fiber_main(
        reinterpret_cast<void*>(static_cast<std::uintptr_t>(bits)));
  }
#endif

  char* map_ = nullptr;    // guard page, then the stack
  std::size_t map_bytes_ = 0;
  char* stack_ = nullptr;  // lowest usable stack byte
#if defined(__x86_64__)
  void* sp_ = nullptr;         // the fiber's rsp while it is switched out
  void* caller_sp_ = nullptr;  // the enterer's rsp while the fiber runs
#else
  ucontext_t ctx_{};
  ucontext_t caller_ctx_{};
#endif
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack_ = nullptr;
  const void* caller_bottom_ = nullptr;
  std::size_t caller_size_ = 0;
#endif
};

Process::Process(Simulation* sim, std::uint64_t id, std::string name,
                 std::function<void()> body)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      fiber_(std::make_unique<Fiber>(this)) {}

// Simulation finishes (or kills) every process before destroying it, so no
// frame is left on the stack ~Fiber unmaps.
Process::~Process() = default;

void Process::fiber_main(void* self) {
  auto* p = static_cast<Process*>(self);
  p->fiber_->arrived();
  try {
    p->body_();
  } catch (const ProcessKilled&) {
    // Normal shutdown path.
  } catch (...) {
    p->error_ = std::current_exception();
  }
  p->finished_ = true;
  // Hand control back one last time; the scheduler observes finished_.
  p->fiber_->finish();
}

void Process::resume_from_scheduler() {
  fiber_->enter();
  if (finished_) fiber_.reset();  // the body has returned; free its stack
}

void Process::yield_to_scheduler() {
  // The C++ runtime keeps one caught-exception stack per OS thread, and
  // every process shares the scheduler's (DESIGN.md §5).
  SV_DCHECK(std::current_exception() == nullptr,
            "process '" + name_ + "' blocked inside a catch handler");
  fiber_->leave();
}

}  // namespace sv::sim
