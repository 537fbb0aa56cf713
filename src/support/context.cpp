#include "support/context.h"

namespace pf::support {

namespace {

thread_local Context tl_context;

}  // namespace

Context& current_context() { return tl_context; }

}  // namespace pf::support
