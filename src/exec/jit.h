// JIT runner: compile emitted C with the system compiler into a shared
// object, dlopen it, and call pf_kernel. This is the "backend compiler"
// half of the source-to-source pipeline (the paper uses icc; we use the
// system cc -- see DESIGN.md substitutions).
#pragma once

#include <optional>
#include <string>

#include "exec/storage.h"

namespace pf::exec {

struct JitOptions {
  std::string compiler = "cc";
  std::string opt_flags = "-O2";
  /// Kill the compiler and fail the compile after this many milliseconds
  /// (< 0: no timeout). A hung backend compiler must not hang polyfuse.
  long compile_timeout_ms = 60000;
};

/// True if the configured compiler appears usable on this machine.
bool jit_available(const JitOptions& options = {});

class JitKernel {
 public:
  /// Compile a C translation unit exporting
  /// `void <entry>(double**, const long long*)`.
  /// Returns nullopt and fills *error on failure.
  static std::optional<JitKernel> compile(const std::string& c_source,
                                          const std::string& entry = "pf_kernel",
                                          const JitOptions& options = {},
                                          std::string* error = nullptr);

  JitKernel(JitKernel&& o) noexcept;
  JitKernel& operator=(JitKernel&& o) noexcept;
  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;
  ~JitKernel();

  /// Run the kernel against a store (arrays and params from the store).
  void run(ArrayStore& store) const;

 private:
  JitKernel() = default;

  void* handle_ = nullptr;
  using Fn = void (*)(double**, const long long*);
  Fn fn_ = nullptr;
  std::string dir_;  // temp dir, removed in dtor
};

}  // namespace pf::exec
