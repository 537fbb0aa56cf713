// C code emission: turn a loop AST into a self-contained C translation
// unit exporting
//
//   void pf_kernel(double** arrays, const long long* params);
//
// `arrays` holds one flattened row-major buffer per Scop array (in
// declaration order); `params` holds the parameter values (in declaration
// order). Parallel loops get `#pragma omp parallel for` on the outermost
// parallel level of each nest. The output compiles with any C99 compiler;
// this is the source-to-source half of the pipeline (the paper's
// transformed codes, Figures 1/4/5/6), and the JIT runner feeds it to the
// system compiler.
#pragma once

#include <string>

#include "codegen/ast.h"

namespace pf::codegen {

struct CEmitOptions {
  /// Emit `#pragma omp parallel for` on loops marked parallel.
  bool openmp = true;
};

std::string emit_c(const AstNode& root, const ir::Scop& scop,
                   const CEmitOptions& options = {});

}  // namespace pf::codegen
