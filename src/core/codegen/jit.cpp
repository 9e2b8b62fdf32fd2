#include "core/codegen/jit.h"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/verify/verify.h"
#include "kernels/linalg.h"
#include "kernels/metrics.h"
#include "obs/trace.h"
#include "util/log.h"

namespace portal {
namespace {

std::string compiler_command() {
  const char* cxx = std::getenv("CXX");
  return cxx != nullptr && *cxx != '\0' ? cxx : "c++";
}

/// -ffp-contract=off is part of the bitwise contract (DESIGN.md Sec. 10):
/// under plain -O3 -march=native the compiler would contract a*b+c into FMA,
/// producing differently-rounded sums than the interpreter's separate
/// multiply+add. The root CMakeLists.txt applies the same flag to the host
/// build, so the VM and scalar oracles round the same way as this code.
constexpr const char* kJitFlags =
    " -O3 -march=native -ffp-contract=off -shared -fPIC";

void emit_literal(std::ostream& os, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  os << buf;
}

/// Names the printer substitutes for the reference-point array and the
/// dimension bound: the pair kernel reads `r`/`dim`, the fused tile loops
/// read the gathered lane `rj` under the unrolled `kDim`.
struct EmitNames {
  const char* r = "r";
  const char* dim = "dim";
};

/// Emit an IR expression as a C++ expression. `q`/`names.r` name the point
/// arrays; dim loops become immediately-invoked lambdas so the whole kernel
/// stays a single expression. Every emitted operation mirrors the VM
/// interpreter op (core/codegen/vm.cpp) bit for bit -- see the prelude for
/// the helper contracts.
void emit_expr(std::ostream& os, const IrExprPtr& e, int* matrix_counter,
               std::ostream& preamble, const EmitNames& names) {
  const auto child = [&](std::size_t i) {
    emit_expr(os, e->children[i], matrix_counter, preamble, names);
  };
  switch (e->op) {
    case IrOp::Const:
      emit_literal(os, static_cast<double>(e->value));
      return;
    case IrOp::LoadQCoord:
      // Flattened form: base + d * stride. The executor hands the JIT
      // dim-contiguous gathered points, so the runtime stride is 1; the
      // flattening metadata is shown in dumps, not re-derived here.
      os << "q[d]";
      return;
    case IrOp::LoadRCoord:
      os << names.r << "[d]";
      return;
    case IrOp::Dist:
      os << "dist";
      return;
    case IrOp::Add: os << "("; child(0); os << " + "; child(1); os << ")"; return;
    case IrOp::Sub: os << "("; child(0); os << " - "; child(1); os << ")"; return;
    case IrOp::Mul: os << "("; child(0); os << " * "; child(1); os << ")"; return;
    case IrOp::Div: os << "("; child(0); os << " / "; child(1); os << ")"; return;
    case IrOp::Neg: os << "(-"; child(0); os << ")"; return;
    case IrOp::Abs: os << "portal_fabs("; child(0); os << ")"; return;
    case IrOp::Min: os << "portal_min("; child(0); os << ", "; child(1); os << ")"; return;
    case IrOp::Max: os << "portal_max("; child(0); os << ", "; child(1); os << ")"; return;
    case IrOp::Pow: {
      // Mirror of the VM's PowConst dispatch: integer exponents in [0, 32]
      // go through the chained-multiplication helper (bitwise-identical to
      // kernels/fastmath.h pow_int), anything else through libm pow.
      const double exponent = static_cast<double>(e->value);
      const double intpart = std::nearbyint(exponent);
      if (exponent == intpart && intpart >= 0 && intpart <= 32) {
        os << "portal_pow_int(";
        child(0);
        os << ", " << static_cast<int>(intpart) << ")";
      } else {
        os << "__builtin_pow(";
        child(0);
        os << ", ";
        emit_literal(os, exponent);
        os << ")";
      }
      return;
    }
    case IrOp::Sqrt: os << "__builtin_sqrt("; child(0); os << ")"; return;
    case IrOp::FastSqrt:
      os << "(1.0 / portal_fast_inv_sqrt(";
      child(0);
      os << "))";
      return;
    case IrOp::InvSqrt:
      os << "(1.0 / __builtin_sqrt(";
      child(0);
      os << "))";
      return;
    case IrOp::FastInvSqrt:
      os << "portal_fast_inv_sqrt(";
      child(0);
      os << ")";
      return;
    case IrOp::Exp: os << "__builtin_exp("; child(0); os << ")"; return;
    case IrOp::Log: os << "__builtin_log("; child(0); os << ")"; return;
    case IrOp::Less:
      os << "((";
      child(0);
      os << " < ";
      child(1);
      os << ") ? 1.0 : 0.0)";
      return;
    case IrOp::Greater:
      os << "((";
      child(0);
      os << " > ";
      child(1);
      os << ") ? 1.0 : 0.0)";
      return;
    case IrOp::LogicalAnd:
      os << "(((";
      child(0);
      os << ") != 0.0 && (";
      child(1);
      os << ") != 0.0) ? 1.0 : 0.0)";
      return;
    case IrOp::DimSum:
    case IrOp::DimMax: {
      const bool is_sum = e->op == IrOp::DimSum;
      os << "[&]{ double acc = "
         << (is_sum ? "0.0" : "-1.7976931348623157e308")
         << "; for (long d = 0; d < " << names.dim
         << "; ++d) { const double body = ";
      child(0);
      os << "; " << (is_sum ? "acc += body;" : "if (body > acc) acc = body;")
         << " } return acc; }()";
      return;
    }
    case IrOp::MahalanobisNaive:
    case IrOp::MahalanobisChol: {
      // Embed the matrix as a static array; the Chol flavor runs forward
      // substitution through the caller-provided scratch (matrix = L), the
      // naive flavor the explicit quadratic form (matrix = Sigma^{-1},
      // inverted here at compile time -- kept for the numerical-optimization
      // ablation).
      const int id = (*matrix_counter)++;
      std::vector<real_t> matrix = e->matrix;
      if (e->op == IrOp::MahalanobisNaive) {
        const index_t m = static_cast<index_t>(
            std::llround(std::sqrt(static_cast<double>(matrix.size()))));
        matrix = spd_inverse(matrix, m);
      }
      const std::size_t m2 = matrix.size();
      preamble << "static const double portal_mat_" << id << "[" << m2 << "] = {";
      for (std::size_t i = 0; i < m2; ++i) {
        emit_literal(preamble, static_cast<double>(matrix[i]));
        preamble << (i + 1 < m2 ? "," : "");
      }
      preamble << "};\n";
      if (e->op == IrOp::MahalanobisChol) {
        os << "portal_maha_chol(q, " << names.r << ", " << names.dim
           << ", portal_mat_" << id << ", scratch)";
      } else {
        os << "portal_maha_naive(q, " << names.r << ", " << names.dim
           << ", portal_mat_" << id << ")";
      }
      return;
    }
    case IrOp::ExternalCall:
      throw std::runtime_error("jit: external kernels are not serializable");
    default:
      throw std::runtime_error("jit: unexpected IR op in kernel expression");
  }
}

// Every helper replicates its runtime counterpart bit for bit: portal_fabs /
// portal_min / portal_max are std::fabs / std::min / std::max, the
// fast-inverse-sqrt is kernels/fastmath.h including the NaN / negative /
// denormal / infinity edge cases, portal_pow_int is pow_int's
// square-and-multiply, and the Mahalanobis helpers follow kernels/linalg.cpp
// operation for operation. This is what makes JIT output comparable to the
// VM at tolerance 0 in the differential fuzz walls.
const char* kPrelude = R"(// Generated by the Portal compiler backend. Do not edit.
#include <cstdint>
#include <cstring>

static inline double portal_fabs(double x) { return __builtin_fabs(x); }
static inline double portal_min(double a, double b) { return b < a ? b : a; }
static inline double portal_max(double a, double b) { return a < b ? b : a; }

static inline double portal_fast_inv_sqrt(double x) {
  if (x != x) return x; // NaN propagates
  if (x < 0.0) return __builtin_nan("");
  if (x < 2.2250738585072014e-308) return __builtin_inf(); // 0 and denormals
  if (x == __builtin_inf()) return 0.0;
  double half = 0.5 * x;
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits = 0x5FE6EB50C7B537A9ULL - (bits >> 1);
  double y;
  std::memcpy(&y, &bits, sizeof(y));
  y = y * (1.5 - half * y * y); // one Newton step
  return y;
}

static inline double portal_pow_int(double x, int n) {
  switch (n) {
    case 0: return 1.0;
    case 1: return x;
    case 2: return x * x;
    case 3: return x * x * x;
    default: {
      const bool negative = n < 0;
      unsigned int e = negative ? 0u - static_cast<unsigned int>(n)
                                : static_cast<unsigned int>(n);
      double result = 1.0;
      double base = x;
      while (e > 0) {
        if (e & 1u) result *= base;
        base *= base;
        e >>= 1;
      }
      return negative ? 1.0 / result : result;
    }
  }
}

static inline double portal_maha_chol(const double* q, const double* r, long dim,
                                      const double* L, double* scratch) {
  double* diff = scratch;
  double* solved = scratch + dim;
  for (long i = 0; i < dim; ++i) diff[i] = q[i] - r[i];
  for (long i = 0; i < dim; ++i) {
    double sum = diff[i];
    for (long k = 0; k < i; ++k) sum -= L[i * dim + k] * solved[k];
    solved[i] = sum / L[i * dim + i];
  }
  double total = 0;
  for (long i = 0; i < dim; ++i) total += solved[i] * solved[i];
  return total;
}

static inline double portal_maha_naive(const double* q, const double* r, long dim,
                                       const double* inv) {
  double total = 0;
  for (long i = 0; i < dim; ++i) {
    double row = 0;
    for (long j = 0; j < dim; ++j) row += inv[i * dim + j] * (q[j] - r[j]);
    total += (q[i] - r[i]) * row;
  }
  return total;
}
)";

/// The compile-time dimension the fused loops unroll against: every plan
/// binds its layers to concrete datasets, so the first input layer's dim is
/// authoritative. 0 (no input layer -- hand-built shells) falls back to the
/// runtime `dim` argument.
index_t plan_dim(const ProblemPlan& plan) {
  for (const LayerSpec& layer : plan.layers)
    if (layer.storage.is_input()) return layer.storage.dim();
  return 0;
}

void emit_dim_decl(std::ostream& os, index_t kdim) {
  if (kdim > 0) {
    os << "  constexpr long kDim = " << kdim << ";\n  (void)dim;\n";
  } else {
    os << "  const long kDim = dim;\n";
  }
}

constexpr const char* kFusedSignature =
    "(const double* q, const double* rlanes,\n"
    "                  long rstride, long rbegin, long count, long dim,\n"
    "                  double* scratch, double* out)";

/// portal_fused_batch: the opaque-kernel tile loop. Gathers each SoA lane
/// into dim-contiguous scratch and evaluates the full kernel expression --
/// the same per-lane operation sequence as VmProgram::run_batch, minus the
/// interpreter.
void emit_fused_batch(std::ostream& body, const ProblemPlan& plan,
                      index_t kdim, int* matrix_counter,
                      std::ostream& preamble) {
  body << "extern \"C\" void portal_fused_batch" << kFusedSignature << " {\n";
  emit_dim_decl(body, kdim);
  body << "  const double* rl = rlanes + rbegin;\n"
          "  double* rj = scratch + 2 * kDim;\n"
          "  for (long j = 0; j < count; ++j) {\n"
          "    for (long d = 0; d < kDim; ++d) rj[d] = rl[d * rstride + j];\n"
          "    out[j] = ";
  EmitNames names;
  names.r = "rj";
  names.dim = "kDim";
  emit_expr(body, plan.kernel.kernel_ir, matrix_counter, preamble, names);
  body << ";\n  }\n}\n\n";
}

/// portal_fused_values: the normalized-plan tile loop. Natural-space metric
/// distances dimension-outer / lane-inner (the exact loop shape and per-lane
/// operation order of batch::natural_dists) with the envelope applied in
/// place -- kernel, prune condition (indicator envelopes emit as branchless
/// compares), and accumulation fused into one pass over the tile.
void emit_fused_values(std::ostream& body, const ProblemPlan& plan,
                       index_t kdim, int* matrix_counter,
                       std::ostream& preamble) {
  body << "extern \"C\" void portal_fused_values" << kFusedSignature << " {\n";
  emit_dim_decl(body, kdim);
  body << "  (void)scratch;\n"
          "  const double* rl = rlanes + rbegin;\n";
  const MetricKind metric = plan.kernel.metric;
  if (metric == MetricKind::Mahalanobis) {
    const std::vector<real_t>& chol = plan.kernel.maha->chol();
    const int id = (*matrix_counter)++;
    preamble << "static const double portal_mat_" << id << "["
             << chol.size() << "] = {";
    for (std::size_t i = 0; i < chol.size(); ++i) {
      emit_literal(preamble, static_cast<double>(chol[i]));
      preamble << (i + 1 < chol.size() ? "," : "");
    }
    preamble << "};\n";
    body << "  double* rj = scratch + 2 * kDim;\n"
            "  for (long j = 0; j < count; ++j) {\n"
            "    for (long d = 0; d < kDim; ++d) rj[d] = rl[d * rstride + j];\n"
            "    out[j] = portal_maha_chol(q, rj, kDim, portal_mat_" << id
         << ", scratch);\n"
            "  }\n";
  } else {
    const char* accumulate = nullptr;
    switch (metric) {
      case MetricKind::SqEuclidean:
      case MetricKind::Euclidean:
        accumulate = "      const double diff = slice[j] - qd;\n"
                     "      out[j] += diff * diff;\n";
        break;
      case MetricKind::Manhattan:
        accumulate = "      out[j] += portal_fabs(slice[j] - qd);\n";
        break;
      case MetricKind::Chebyshev:
        accumulate =
            "      out[j] = portal_max(out[j], portal_fabs(slice[j] - qd));\n";
        break;
      case MetricKind::Mahalanobis:
        break; // handled above
    }
    body << "  for (long j = 0; j < count; ++j) out[j] = 0.0;\n"
            "  for (long d = 0; d < kDim; ++d) {\n"
            "    const double* slice = rl + d * rstride;\n"
            "    const double qd = q[d];\n"
            "    for (long j = 0; j < count; ++j) {\n"
         << accumulate
         << "    }\n  }\n";
    if (metric == MetricKind::Euclidean)
      body << "  for (long j = 0; j < count; ++j) out[j] = "
              "__builtin_sqrt(out[j]);\n";
  }
  body << "  for (long j = 0; j < count; ++j) {\n"
          "    const double dist = out[j];\n"
          "    out[j] = ";
  EmitNames names;
  emit_expr(body, plan.kernel.envelope_ir, matrix_counter, preamble, names);
  body << ";\n  }\n}\n";
}

} // namespace

std::string emit_cpp_source(const ProblemPlan& plan) {
  if (plan.kernel.kernel_ir && ir_contains(plan.kernel.kernel_ir, IrOp::ExternalCall))
    throw std::runtime_error("jit: external kernels are not serializable");
  // Verified-IR precondition: the printer indexes children by arity and
  // would emit garbage C++ from malformed trees.
  verify_executable_expr(plan.kernel.kernel_ir, "jit");
  if (plan.kernel.normalized && plan.kernel.envelope_ir)
    verify_executable_expr(plan.kernel.envelope_ir, "jit-envelope");

  std::ostringstream preamble;
  std::ostringstream body;
  int matrix_counter = 0;
  const EmitNames pair_names;

  body << "extern \"C\" double portal_kernel(const double* q, const double* r, "
          "long dim, double* scratch) {\n  (void)scratch; (void)dim;\n  return ";
  emit_expr(body, plan.kernel.kernel_ir, &matrix_counter, preamble, pair_names);
  body << ";\n}\n\n";

  const bool have_envelope = plan.kernel.normalized && plan.kernel.envelope_ir;
  if (have_envelope) {
    body << "extern \"C\" double portal_envelope(double dist) {\n  return ";
    emit_expr(body, plan.kernel.envelope_ir, &matrix_counter, preamble,
              pair_names);
    body << ";\n}\n\n";
  }

  const index_t kdim = plan_dim(plan);
  emit_fused_batch(body, plan, kdim, &matrix_counter, preamble);
  if (have_envelope &&
      (plan.kernel.metric != MetricKind::Mahalanobis || plan.kernel.maha))
    emit_fused_values(body, plan, kdim, &matrix_counter, preamble);

  std::string source = kPrelude;
  source += preamble.str();
  source += "\n";
  source += body.str();
  return source;
}

bool jit_available() {
  static const bool available = [] {
    const std::string cmd =
        compiler_command() + " --version > /dev/null 2>&1";
    return std::system(cmd.c_str()) == 0;
  }();
  return available;
}

const std::string& jit_compiler_identity() {
  static const std::string identity = [] {
    std::string id = compiler_command() + kJitFlags;
    const std::string cmd = compiler_command() + " --version 2>/dev/null";
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
      char line[256];
      if (std::fgets(line, sizeof(line), pipe) != nullptr) {
        std::string version(line);
        while (!version.empty() &&
               (version.back() == '\n' || version.back() == '\r'))
          version.pop_back();
        id += " | " + version;
      }
      pclose(pipe);
    }
    return id;
  }();
  return identity;
}

const std::string& jit_scratch_dir() {
  // One mkdtemp directory per process: concurrent processes can never
  // collide on intermediate file names, and the janitor removes the (by
  // then empty) directory at exit.
  static const struct Scratch {
    std::string dir;
    Scratch() {
      const char* tmp = std::getenv("TMPDIR");
      std::string tpl =
          std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
          "/portal_jit_XXXXXX";
      std::vector<char> buf(tpl.begin(), tpl.end());
      buf.push_back('\0');
      if (mkdtemp(buf.data()) == nullptr)
        throw std::runtime_error("jit: cannot create scratch directory from " +
                                 tpl);
      dir.assign(buf.data());
    }
    ~Scratch() {
      if (!dir.empty()) rmdir(dir.c_str());
    }
  } scratch;
  return scratch.dir;
}

std::unique_ptr<JitModule> JitModule::compile(const ProblemPlan& plan) {
  return compile(plan, ArtifactCache::process_cache());
}

std::unique_ptr<JitModule> JitModule::compile(const ProblemPlan& plan,
                                              ArtifactCache* cache) {
  if (plan.kernel.kernel_ir &&
      ir_contains(plan.kernel.kernel_ir, IrOp::ExternalCall))
    return nullptr;
  if (plan.kernel.is_gravity) return nullptr; // pattern-backend shape

  PORTAL_OBS_SCOPE(compile_scope, "jit/compile");
  auto module = std::unique_ptr<JitModule>(new JitModule());
  module->source_ = emit_cpp_source(plan);
  const std::uint64_t source_hash = fnv1a_bytes(module->source_);
  const std::uint64_t key =
      artifact_cache_key(plan.fingerprint, source_hash, jit_compiler_identity(),
                         kJitEmitterVersion);

  if (cache != nullptr) {
    const std::string cached = cache->lookup(key, source_hash);
    if (!cached.empty()) {
      if (module->open(cached, /*owned=*/false)) {
        module->from_cache_ = true;
        PORTAL_LOG_INFO("jit: warm-started module from %s", cached.c_str());
        return module;
      }
      // Hash-validated yet undlopenable (foreign-architecture debris):
      // treated exactly like any other bad entry -- rejected, recompiled.
      PORTAL_OBS_COUNT("jit/artifact/rejects", 1);
      PORTAL_LOG_WARN("jit: cached artifact failed to load, recompiling: %s",
                      cached.c_str());
    }
  }

  static std::atomic<int> counter{0};
  const std::string base =
      jit_scratch_dir() + "/m" + std::to_string(counter.fetch_add(1));
  const std::string cpp_path = base + ".cpp";
  const std::string so_path = base + ".so";
  const std::string log_path = base + ".log";

  {
    std::ofstream out(cpp_path);
    if (!out) throw std::runtime_error("jit: cannot write " + cpp_path);
    out << module->source_;
  }

  const std::string cmd = compiler_command() + kJitFlags + " -o " + so_path +
                          " " + cpp_path + " > " + log_path + " 2>&1";
  PORTAL_OBS_COUNT("jit/artifact/compiles", 1);
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream log(log_path);
    std::stringstream message;
    message << "jit: compilation failed:\n" << log.rdbuf();
    std::remove(cpp_path.c_str());
    std::remove(log_path.c_str());
    std::remove(so_path.c_str()); // partial output, if any
    throw std::runtime_error(message.str());
  }
  std::remove(cpp_path.c_str());
  std::remove(log_path.c_str());

  if (!module->open(so_path, /*owned=*/true)) {
    const char* err = dlerror();
    std::remove(so_path.c_str());
    throw std::runtime_error(std::string("jit: dlopen failed: ") +
                             (err != nullptr ? err : "unknown error"));
  }
  PORTAL_OBS_COUNT("jit/modules_compiled", 1);
  PORTAL_LOG_INFO("jit: compiled kernel module %s", so_path.c_str());

  if (cache != nullptr)
    cache->publish(key, source_hash, jit_compiler_identity(), so_path);
  return module;
}

bool JitModule::open(const std::string& so_path, bool owned) {
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) return false;
  KernelFn kernel = reinterpret_cast<KernelFn>(dlsym(handle, "portal_kernel"));
  if (kernel == nullptr) {
    dlclose(handle);
    return false;
  }
  handle_ = handle;
  so_path_ = so_path;
  owned_so_ = owned;
  kernel_ = kernel;
  envelope_ = reinterpret_cast<EnvelopeFn>(dlsym(handle, "portal_envelope"));
  fused_batch_ =
      reinterpret_cast<BatchFn>(dlsym(handle, "portal_fused_batch"));
  fused_values_ =
      reinterpret_cast<BatchFn>(dlsym(handle, "portal_fused_values"));
  return true;
}

JitModule::~JitModule() {
  if (handle_ != nullptr) dlclose(handle_);
  if (owned_so_ && !so_path_.empty()) std::remove(so_path_.c_str());
}

EvaluatorFns JitModule::evaluators() const {
  EvaluatorFns fns;
  const KernelFn kernel = kernel_;
  fns.kernel_pair = [kernel](const real_t* q, const real_t* r, index_t dim,
                             real_t* scratch) {
    PORTAL_OBS_COUNT("jit/kernel_evals", 1);
    return kernel(q, r, static_cast<long>(dim), scratch);
  };
  if (envelope_ != nullptr) {
    const EnvelopeFn envelope = envelope_;
    fns.envelope = [envelope](const real_t* dists, index_t count, real_t* out) {
      for (index_t j = 0; j < count; ++j) out[j] = envelope(dists[j]);
    };
  }
  if (fused_batch_ != nullptr) {
    const BatchFn fused = fused_batch_;
    fns.kernel_batch = [fused](const real_t* q, const real_t* rlanes,
                               index_t rstride, index_t rbegin, index_t count,
                               index_t dim, real_t* scratch, real_t* out) {
      PORTAL_OBS_COUNT("jit/batch_evals", 1);
      fused(q, rlanes, static_cast<long>(rstride), static_cast<long>(rbegin),
            static_cast<long>(count), static_cast<long>(dim), scratch, out);
    };
  }
  if (fused_values_ != nullptr) {
    const BatchFn fused = fused_values_;
    fns.leaf_values = [fused](const real_t* q, const real_t* rlanes,
                              index_t rstride, index_t rbegin, index_t count,
                              index_t dim, real_t* scratch, real_t* out) {
      PORTAL_OBS_COUNT("jit/leaf_tiles", 1);
      fused(q, rlanes, static_cast<long>(rstride), static_cast<long>(rbegin),
            static_cast<long>(count), static_cast<long>(dim), scratch, out);
    };
  }
  return fns;
}

} // namespace portal
