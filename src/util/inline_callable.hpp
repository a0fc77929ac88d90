#pragma once
// Move-only type-erased callable with small-buffer inline storage.
//
// std::function keeps only ~16 bytes of inline storage on libstdc++ (and
// only for trivially-copyable targets), so kernel event actions capturing
// {this, token, id} heap-allocate on every schedule. InlineCallable widens
// the inline buffer (24 bytes by default — three pointers, the dense-cohort
// sweet spot: the event queue's Slot stays 40 bytes, and measured cohort
// push throughput is bandwidth-bound in sizeof(Slot)) and drops
// copyability, which the event path never needed: actions are moved into
// the queue, moved out to execute, and destroyed. Callables larger than the
// buffer (or with throwing moves, or over-aligned beyond 8) fall back to a
// single heap allocation, preserving correctness for rare fat captures —
// long-lived callables like periodic bodies pay that once at registration,
// not per event, because relocation of a heap target moves a pointer.
//
// Semantics intentionally mirror the std::function subset the kernel uses:
// implicit construction from any callable, assignment from nullptr to drop
// the target early, explicit bool, and invocation. Invoking an empty
// InlineCallable is undefined (the queue rejects empty actions at push).

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sa::util {

template <typename Signature, std::size_t InlineBytes = 24>
class InlineCallable; // primary template left undefined

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineCallable<R(Args...), InlineBytes> {
public:
    static constexpr std::size_t inline_bytes = InlineBytes;

    InlineCallable() noexcept = default;
    // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function
    InlineCallable(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, InlineCallable> &&
                                          std::is_invocable_r_v<R, D&, Args...>>>
    // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function
    InlineCallable(F&& f) {
        construct<D>(std::forward<F>(f));
    }

    InlineCallable(InlineCallable&& other) noexcept { move_from(other); }

    InlineCallable& operator=(InlineCallable&& other) noexcept {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }

    InlineCallable& operator=(std::nullptr_t) noexcept {
        reset();
        return *this;
    }

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, InlineCallable> &&
                                          std::is_invocable_r_v<R, D&, Args...>>>
    InlineCallable& operator=(F&& f) {
        reset();
        construct<D>(std::forward<F>(f));
        return *this;
    }

    InlineCallable(const InlineCallable&) = delete;
    InlineCallable& operator=(const InlineCallable&) = delete;

    ~InlineCallable() { reset(); }

    [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

    friend bool operator==(const InlineCallable& c, std::nullptr_t) noexcept {
        return c.vtable_ == nullptr;
    }

    R operator()(Args... args) {
        return vtable_->invoke(storage_, std::forward<Args>(args)...);
    }

    void reset() noexcept {
        if (vtable_ != nullptr) {
            if (!vtable_->trivial_destroy) {
                vtable_->destroy(storage_);
            }
            vtable_ = nullptr;
        }
    }

    /// True when the current target lives in the inline buffer (diagnostic;
    /// empty callables report true — there is nothing on the heap).
    [[nodiscard]] bool is_inline() const noexcept {
        return vtable_ == nullptr || !vtable_->heap;
    }

private:
    struct VTable {
        R (*invoke)(void*, Args&&...);
        /// Move-construct dst from src, then destroy src. Never throws: only
        /// nothrow-movable targets are stored inline, heap targets relocate
        /// by pointer.
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void*) noexcept;
        bool heap;
        /// memcpy of the storage buffer IS relocation: trivially copyable
        /// inline targets and heap targets (whose buffer holds only a D*).
        /// Keeps the two moves per event-queue push free of indirect calls —
        /// the kernel's lambdas capture {this, pointers, ints} and qualify.
        bool trivial_relocate;
        /// Destruction is a no-op (trivially destructible inline target).
        bool trivial_destroy;
    };

    // Pointer alignment, not max_align_t: 16-byte alignment would pad the
    // whole object (and every queue Slot holding one) up to the next
    // 16-byte multiple, and the dense-cohort benches are bandwidth-bound in
    // sizeof. Over-aligned captures take the heap path via fits_inline_v.
    static constexpr std::size_t kStorageAlign = alignof(void*);

    template <typename D>
    static constexpr bool fits_inline_v =
        sizeof(D) <= InlineBytes && alignof(D) <= kStorageAlign &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    struct InlineOps {
        static R invoke(void* p, Args&&... args) {
            return (*std::launder(reinterpret_cast<D*>(p)))(std::forward<Args>(args)...);
        }
        static void relocate(void* dst, void* src) noexcept {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
        }
        static void destroy(void* p) noexcept {
            std::launder(reinterpret_cast<D*>(p))->~D();
        }
        static constexpr VTable vtable{&invoke, &relocate, &destroy, false,
                                       std::is_trivially_copyable_v<D>,
                                       std::is_trivially_destructible_v<D>};
    };

    template <typename D>
    struct HeapOps {
        static R invoke(void* p, Args&&... args) {
            return (**std::launder(reinterpret_cast<D**>(p)))(std::forward<Args>(args)...);
        }
        static void relocate(void* dst, void* src) noexcept {
            ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        }
        static void destroy(void* p) noexcept {
            delete *std::launder(reinterpret_cast<D**>(p));
        }
        static constexpr VTable vtable{&invoke, &relocate, &destroy, true,
                                       /*trivial_relocate=*/true,
                                       /*trivial_destroy=*/false};
    };

    template <typename D, typename F>
    void construct(F&& f) {
        if constexpr (fits_inline_v<D>) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
            vtable_ = &InlineOps<D>::vtable;
        } else {
            ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
            vtable_ = &HeapOps<D>::vtable;
        }
    }

    void move_from(InlineCallable& other) noexcept {
        if (other.vtable_ != nullptr) {
            if (other.vtable_->trivial_relocate) {
                // Whole-buffer copy regardless of target size: fixed-size
                // memcpy inlines to a few vector moves, no indirect call.
                std::memcpy(static_cast<void*>(storage_), other.storage_,
                            InlineBytes);
            } else {
                other.vtable_->relocate(storage_, other.storage_);
            }
            vtable_ = other.vtable_;
            other.vtable_ = nullptr;
        }
    }

    alignas(kStorageAlign) unsigned char storage_[InlineBytes];
    const VTable* vtable_ = nullptr;
};

} // namespace sa::util
