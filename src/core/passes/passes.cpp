#include "core/passes/passes.h"

#include <cmath>
#include <set>

#include "kernels/fastmath.h"
#include "kernels/linalg.h"
#include "obs/trace.h"
#include "util/log.h"

namespace portal {
namespace {

IrExprPtr clone_with(const IrExprPtr& node, const std::function<void(IrExpr&)>& edit) {
  IrExpr copy = *node;
  edit(copy);
  return std::make_shared<const IrExpr>(std::move(copy));
}

bool is_const(const IrExprPtr& node, real_t value) {
  return node->op == IrOp::Const && node->value == value;
}

} // namespace

IrExprPtr flatten_pass(const IrExprPtr& expr, Layout query_layout,
                       index_t query_size, Layout ref_layout, index_t ref_size) {
  return ir_rewrite(expr, [&](const IrExprPtr& node) -> IrExprPtr {
    if (node->op == IrOp::LoadQCoord && !node->flattened) {
      return clone_with(node, [&](IrExpr& e) {
        e.flattened = true;
        e.stride = query_layout == Layout::RowMajor ? 1 : query_size;
      });
    }
    if (node->op == IrOp::LoadRCoord && !node->flattened) {
      return clone_with(node, [&](IrExpr& e) {
        e.flattened = true;
        e.stride = ref_layout == Layout::RowMajor ? 1 : ref_size;
      });
    }
    return nullptr;
  });
}

IrExprPtr numerical_optimization_pass(const IrExprPtr& expr) {
  return ir_rewrite(expr, [](const IrExprPtr& node) -> IrExprPtr {
    if (node->op != IrOp::MahalanobisNaive) return nullptr;
    const index_t m = static_cast<index_t>(
        std::llround(std::sqrt(static_cast<double>(node->matrix.size()))));
    return clone_with(node, [&](IrExpr& e) {
      e.op = IrOp::MahalanobisChol;
      e.matrix = cholesky(node->matrix, m); // store the L factor
    });
  });
}

IrExprPtr strength_reduction_pass(const IrExprPtr& expr) {
  return ir_rewrite(expr, [](const IrExprPtr& node) -> IrExprPtr {
    // pow(x, n) with integer 0 <= n < 4 -> chained multiplication.
    if (node->op == IrOp::Pow) {
      const real_t exponent = node->value;
      if (exponent == std::nearbyint(exponent) && exponent >= 0 && exponent < 4) {
        const int n = static_cast<int>(exponent);
        const IrExprPtr& x = node->children[0];
        switch (n) {
          case 0: return ir_const(1);
          case 1: return x;
          case 2: return ir_binary(IrOp::Mul, x, x);
          case 3: return ir_binary(IrOp::Mul, ir_binary(IrOp::Mul, x, x), x);
          default: break;
        }
      }
      return nullptr;
    }
    // 1 / sqrt(x) -> fast_inv_sqrt(x). ir_rewrite runs bottom-up, so by the
    // time the Div is visited its sqrt child has already become FastSqrt.
    if (node->op == IrOp::Div && is_const(node->children[0], 1) &&
        (node->children[1]->op == IrOp::Sqrt ||
         node->children[1]->op == IrOp::FastSqrt)) {
      return ir_unary(IrOp::FastInvSqrt, node->children[1]->children[0]);
    }
    if (node->op == IrOp::InvSqrt)
      return ir_unary(IrOp::FastInvSqrt, node->children[0]);
    // sqrt(x) -> 1/(1/fast_inverse_sqrt(x)), the NaN-safe variant (Sec. IV-E).
    if (node->op == IrOp::Sqrt)
      return ir_unary(IrOp::FastSqrt, node->children[0]);
    return nullptr;
  });
}

IrExprPtr constant_fold_pass(const IrExprPtr& expr) {
  return ir_rewrite(expr, [](const IrExprPtr& node) -> IrExprPtr {
    const auto all_const = [&]() {
      for (const IrExprPtr& child : node->children)
        if (child->op != IrOp::Const) return false;
      return !node->children.empty();
    };
    const auto c0 = [&]() { return node->children[0]->value; };
    const auto c1 = [&]() { return node->children[1]->value; };

    switch (node->op) {
      case IrOp::Add:
        if (all_const()) return ir_const(c0() + c1());
        if (is_const(node->children[0], 0)) return node->children[1];
        if (is_const(node->children[1], 0)) return node->children[0];
        return nullptr;
      case IrOp::Sub:
        if (all_const()) return ir_const(c0() - c1());
        if (is_const(node->children[1], 0)) return node->children[0];
        return nullptr;
      case IrOp::Mul:
        if (all_const()) return ir_const(c0() * c1());
        if (is_const(node->children[0], 1)) return node->children[1];
        if (is_const(node->children[1], 1)) return node->children[0];
        // x * 0 is NOT folded: x may be inf/NaN at runtime.
        return nullptr;
      case IrOp::Div:
        if (all_const() && c1() != 0) return ir_const(c0() / c1());
        if (is_const(node->children[1], 1)) return node->children[0];
        return nullptr;
      case IrOp::Neg:
        if (all_const()) return ir_const(-c0());
        return nullptr;
      case IrOp::Abs:
        if (all_const()) return ir_const(std::abs(c0()));
        return nullptr;
      case IrOp::Pow:
        if (all_const()) return ir_const(std::pow(c0(), node->value));
        return nullptr;
      case IrOp::Sqrt:
        if (all_const() && c0() >= 0) return ir_const(std::sqrt(c0()));
        return nullptr;
      case IrOp::Exp:
        // The engines' exp, so a folded constant is what any of them computes.
        if (all_const()) return ir_const(det_exp(c0()));
        return nullptr;
      case IrOp::Log:
        if (all_const() && c0() > 0) return ir_const(std::log(c0()));
        return nullptr;
      default:
        return nullptr;
    }
  });
}

namespace {

/// Collect the names of Temp leaves referenced anywhere under a statement.
void collect_temp_reads(const IrExprPtr& expr, std::set<std::string>* out) {
  if (!expr) return;
  if (expr->op == IrOp::Temp) out->insert(expr->label);
  for (const IrExprPtr& child : expr->children) collect_temp_reads(child, out);
}

void collect_temp_reads(const IrStmtPtr& stmt, std::set<std::string>* out) {
  if (!stmt) return;
  collect_temp_reads(stmt->expr, out);
  // Accumulations and reductions read their own target.
  if (stmt->kind == IrStmtKind::Accum || stmt->kind == IrStmtKind::ReduceCmp)
    out->insert(stmt->target);
  for (const IrStmtPtr& child : stmt->body) collect_temp_reads(child, out);
}

bool is_storage_target(const std::string& target) {
  return target.rfind("storage", 0) == 0;
}

} // namespace

IrStmtPtr dce_pass(const IrStmtPtr& root) {
  if (!root) return root;
  std::set<std::string> live;
  collect_temp_reads(root, &live);

  const std::function<IrStmtPtr(const IrStmtPtr&)> strip =
      [&](const IrStmtPtr& stmt) -> IrStmtPtr {
    if (!stmt) return stmt;
    if (stmt->kind == IrStmtKind::AssignExpr && !is_storage_target(stmt->target) &&
        live.count(stmt->target) == 0)
      return nullptr; // dead temp assignment
    if (stmt->body.empty()) return stmt;
    IrStmt copy = *stmt;
    copy.body.clear();
    for (const IrStmtPtr& child : stmt->body)
      if (IrStmtPtr kept = strip(child)) copy.body.push_back(std::move(kept));
    return std::make_shared<const IrStmt>(std::move(copy));
  };
  return strip(root);
}

IrProgram PassManager::run(const IrProgram& input, const IrVerifyContext& vc,
                           CompileArtifacts* artifacts) {
  PORTAL_OBS_SCOPE(pipeline_scope, "compile/passes");
  IrProgram program = input;
  std::string trace;

  // The -verify-each sandwich: re-check well-formedness at every pass
  // boundary. From flattening onward loads must carry metadata matching the
  // dataset layout, so the context tightens as the pipeline progresses.
  IrVerifyContext stage_vc = vc;
  stage_vc.after_flattening = false;
  stage_vc.check_strides = false;
  const auto verify_stage = [&](const char* stage) {
    if (!verify_each_) return;
    PORTAL_OBS_SCOPE(verify_scope, "verify/pass-sandwich");
    DiagnosticEngine diags = verify_program(program, stage_vc);
    if (artifacts != nullptr) {
      artifacts->verify_report += std::string("verify ") + stage + ": " +
                                  std::to_string(diags.error_count()) +
                                  " error(s), " +
                                  std::to_string(diags.warning_count()) +
                                  " warning(s)\n";
      if (!diags.empty()) artifacts->verify_report += diags.report();
    }
    if (!diags.ok())
      throw PortalDiagnosticError(
          "Portal: IR verification failed after " + std::string(stage) + " (" +
              std::to_string(diags.error_count()) + " error(s)):\n" +
              diags.report(),
          diags.diagnostics());
  };

  const auto apply = [&](const char* name,
                         const std::function<IrExprPtr(const IrExprPtr&)>& fn) {
    // Per-pass wall time + IR node in/out counters. Dynamic interning is fine
    // here: passes run once per compile, not per point pair.
    const bool traced = obs::enabled();
    obs::ScopedTimer pass_scope(
        traced ? obs::intern_timer((std::string("pass/") + name).c_str())
               : obs::MetricId(0));
    index_t nodes_before = 0, nodes_after = 0;
    const auto count_program = [&](const IrProgram& p) {
      index_t total = 0;
      const std::function<void(const IrStmtPtr&)> walk = [&](const IrStmtPtr& s) {
        if (!s) return;
        if (s->expr) total += ir_node_count(s->expr);
        for (const IrStmtPtr& child : s->body) walk(child);
      };
      walk(p.base_case);
      walk(p.prune_approx);
      walk(p.compute_approx);
      return total;
    };
    nodes_before = count_program(program);
    program.base_case = ir_stmt_rewrite(program.base_case, fn);
    program.prune_approx = ir_stmt_rewrite(program.prune_approx, fn);
    program.compute_approx = ir_stmt_rewrite(program.compute_approx, fn);
    nodes_after = count_program(program);
    if (traced) {
      const std::string prefix = std::string("pass/") + name;
      obs::counter_add(obs::intern_counter((prefix + "/ir_nodes_in").c_str()),
                       static_cast<std::uint64_t>(nodes_before));
      obs::counter_add(obs::intern_counter((prefix + "/ir_nodes_out").c_str()),
                       static_cast<std::uint64_t>(nodes_after));
    }
    trace += std::string(name) + ": " + std::to_string(nodes_before) + " -> " +
             std::to_string(nodes_after) + " IR nodes\n";
    if (dump_ && artifacts != nullptr)
      artifacts->stages.emplace_back(name, ir_program_to_string(program));
    PORTAL_LOG_DEBUG("pass %s: %lld -> %lld nodes", name,
                     static_cast<long long>(nodes_before),
                     static_cast<long long>(nodes_after));
    verify_stage(name);
  };

  if (dump_ && artifacts != nullptr)
    artifacts->stages.emplace_back("lowering+storage-injection",
                                   ir_program_to_string(program));
  verify_stage("lowering+storage-injection");

  // From here on loads must carry flattening metadata with layout-consistent
  // strides (PTL-E007).
  stage_vc.after_flattening = true;
  stage_vc.check_strides = true;
  apply("flattening", [&](const IrExprPtr& e) {
    return flatten_pass(e, vc.query_layout, vc.query_size, vc.ref_layout,
                        vc.ref_size);
  });
  apply("numerical-optimization", numerical_optimization_pass);
  if (strength_) apply("strength-reduction", strength_reduction_pass);
  apply("constant-folding", constant_fold_pass);

  // Statement-level DCE (Sec. IV-F): the expression passes above can orphan
  // temp assignments (a fully folded condition no longer reads t).
  {
    PORTAL_OBS_SCOPE(dce_scope, "pass/dead-code-elimination");
    program.base_case = dce_pass(program.base_case);
    program.prune_approx = dce_pass(program.prune_approx);
    program.compute_approx = dce_pass(program.compute_approx);
  }
  trace += "dead-code-elimination\n";
  if (dump_ && artifacts != nullptr)
    artifacts->stages.emplace_back("dead-code-elimination",
                                   ir_program_to_string(program));
  verify_stage("dead-code-elimination");

  if (analysis_hook_) {
    PORTAL_OBS_SCOPE(analysis_scope, "pass/analysis");
    analysis_hook_(program, artifacts);
    trace += "analysis\n";
  }

  if (artifacts != nullptr) artifacts->pipeline_trace += trace;
  return program;
}

} // namespace portal
