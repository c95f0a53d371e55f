// Non-owning reference to a callable, for call-scoped callbacks.
//
// std::function owns a copy of its target and heap-allocates any target
// larger than its small buffer (16 bytes in libstdc++), so passing a
// lambda that captures three pointers through one costs an allocation
// per call. FunctionRef stores two pointers — the callable's address and
// a trampoline — and never allocates. It is a parameter type: the
// referenced callable must outlive every call through the reference,
// which holds for a lambda passed straight to the function that calls it.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace mlqr {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Refers to `f` (not a copy): `f` must outlive this reference.
  template <typename F>
    requires(!std::is_same_v<F, FunctionRef> &&
             std::is_invocable_r_v<R, const F&, Args...>)
  FunctionRef(const F& f) noexcept  // Implicit: call sites pass lambdas.
      : obj_(std::addressof(f)),
        call_([](const void* obj, Args... args) -> R {
          const F& target = *static_cast<const F*>(obj);
          if constexpr (std::is_void_v<R>)
            std::invoke(target, std::forward<Args>(args)...);
          else
            return std::invoke(target, std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  const void* obj_;
  R (*call_)(const void*, Args...);
};

}  // namespace mlqr
