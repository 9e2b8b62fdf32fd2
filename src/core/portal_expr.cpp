#include "core/portal_expr.h"

#include <stdexcept>

#include "core/analysis.h"
#include "core/analysis/dataflow.h"
#include "core/analysis/lint.h"
#include "core/ir/ir_hash.h"
#include "core/tuner.h"
#include "core/codegen/jit.h"
#include "core/codegen/pattern.h"
#include "core/passes/lowering.h"
#include "core/passes/passes.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace portal {

struct JitModuleHolder {
  std::unique_ptr<JitModule> module;
};

PortalExpr::PortalExpr() : trees_(std::make_shared<TreeCache>()) {}
PortalExpr::~PortalExpr() = default;

PortalExpr& PortalExpr::addLayer(OpSpec op, const Storage& data) {
  LayerSpec layer;
  layer.op = op;
  layer.storage = data;
  layers_.push_back(std::move(layer));
  compiled_ = false;
  return *this;
}

PortalExpr& PortalExpr::addLayer(OpSpec op, const Storage& data,
                                 const PortalFunc& func) {
  LayerSpec layer;
  layer.op = op;
  layer.storage = data;
  layer.func = func;
  layers_.push_back(std::move(layer));
  compiled_ = false;
  return *this;
}

PortalExpr& PortalExpr::addLayer(OpSpec op, const Var& var, const Storage& data) {
  LayerSpec layer;
  layer.op = op;
  layer.storage = data;
  layer.var_id = var.id();
  layers_.push_back(std::move(layer));
  compiled_ = false;
  return *this;
}

PortalExpr& PortalExpr::addLayer(OpSpec op, const Var& var, const Storage& data,
                                 const Expr& kernel) {
  LayerSpec layer;
  layer.op = op;
  layer.storage = data;
  layer.var_id = var.id();
  layer.custom_kernel = kernel;
  layers_.push_back(std::move(layer));
  compiled_ = false;
  return *this;
}

PortalExpr& PortalExpr::addLayer(OpSpec op, const Storage& data,
                                 ExternalKernelFn kernel, std::string label) {
  LayerSpec layer;
  layer.op = op;
  layer.storage = data;
  layer.external = std::move(kernel);
  layer.external_label = std::move(label);
  layers_.push_back(std::move(layer));
  compiled_ = false;
  return *this;
}

PortalExpr& PortalExpr::addLayerSpec(LayerSpec layer) {
  layers_.push_back(std::move(layer));
  compiled_ = false;
  return *this;
}

void PortalExpr::invalidate() {
  compiled_ = false;
  trees_ = std::make_shared<TreeCache>();
  jit_.reset();
}

const ProblemPlan& PortalExpr::plan() const {
  if (!compiled_)
    throw std::logic_error("PortalExpr::plan: call execute() first");
  return plan_;
}

void PortalExpr::compile_if_needed() {
  if (compiled_) return;
  PORTAL_OBS_SCOPE(compile_scope, "compile/total");
  Timer timer;
  artifacts_ = CompileArtifacts{};

  // Front end: analysis + classification (the prune/approximate generator).
  plan_ = analyze_layers(layers_, config_);
  artifacts_.problem_description = plan_.description;

  // Middle end: lowering + storage injection, then the optimization passes.
  if (!plan_.kernel.is_gravity || plan_.kernel.kernel_ir) {
    plan_.ir = build_ir_program(plan_, config_.tau);
    PassManager passes(config_.strength_reduction, config_.dump_ir,
                       config_.verify_ir);
    const AnalysisInputs analysis_inputs = make_analysis_inputs(plan_, config_);
    // The per-function analysis summary rides in the verify sandwich report,
    // so it honors the same switch: verify_ir = false means an empty report.
    const bool report_analysis = config_.verify_ir;
    passes.set_analysis_hook(
        [&analysis_inputs, report_analysis](const IrProgram& program,
                                            CompileArtifacts* arts) {
          if (arts == nullptr || !report_analysis) return;
          arts->verify_report +=
              analyze_program_summary(program, analysis_inputs);
        });
    const LayerSpec& outer = plan_.layers[0];
    const LayerSpec& inner = plan_.layers[1];
    IrVerifyContext vc;
    vc.dim = outer.storage.dim();
    vc.query_layout = outer.storage.layout();
    vc.query_size = outer.storage.size();
    vc.ref_layout = inner.storage.layout();
    vc.ref_size = inner.storage.size();
    plan_.ir = passes.run(plan_.ir, vc, &artifacts_);
    // The kernel/envelope the backends execute are the post-pass versions:
    // pull them back out of the BaseCase assignment.
    const std::function<IrExprPtr(const IrStmtPtr&)> find_kernel =
        [&](const IrStmtPtr& stmt) -> IrExprPtr {
      if (!stmt) return nullptr;
      if (stmt->kind == IrStmtKind::AssignExpr && stmt->target == "t")
        return stmt->expr;
      for (const IrStmtPtr& child : stmt->body)
        if (IrExprPtr found = find_kernel(child)) return found;
      return nullptr;
    };
    if (IrExprPtr optimized = find_kernel(plan_.ir.base_case))
      plan_.kernel.kernel_ir = optimized;
    if (plan_.kernel.normalized && plan_.kernel.envelope_ir) {
      IrExprPtr env = plan_.kernel.envelope_ir;
      env = numerical_optimization_pass(env);
      if (config_.strength_reduction) env = strength_reduction_pass(env);
      env = constant_fold_pass(env);
      if (config_.verify_ir) {
        DiagnosticEngine diags;
        verify_expr(env, IrContext::Envelope, IrVerifyContext{}, &diags,
                    "envelope");
        if (!diags.ok())
          throw PortalDiagnosticError(
              "Portal: envelope IR verification failed:\n" + diags.report(),
              diags.diagnostics());
      }
      plan_.kernel.envelope_ir = env;
      // Re-derive the envelope shape: passes preserve semantics, but the
      // indicator bounds were extracted pre-pass; keep them.
      if (plan_.kernel.shape != EnvelopeShape::Indicator)
        classify_envelope(&plan_.kernel);
    }
  }

  // Analysis facts + lint over the *final* kernel/envelope (post-pass, post
  // re-classification), cached on the plan next to the fingerprint so every
  // backend reads one legality oracle.
  {
    const AnalysisInputs inputs = make_analysis_inputs(plan_, config_);
    plan_.facts = compute_kernel_facts(plan_, inputs);
    DiagnosticEngine lint;
    lint_plan(plan_, config_, plan_.facts, inputs, &lint);
    artifacts_.lint_diagnostics = lint.diagnostics();
    artifacts_.lint_report = lint.report();
  }

  // Canonical plan identity for the serve-layer compiled-plan cache: hash
  // the verified post-pass IR, never the pre-pass form, so two chains that
  // optimize to the same program share one cached plan. Analysis facts are
  // derived data and deliberately not hashed.
  plan_.fingerprint = plan_fingerprint(plan_);

  artifacts_.compile_seconds = timer.elapsed_s();
  compiled_ = true;
}

void PortalExpr::execute(const PortalConfig& config) {
  config_ = config;
  execute();
}

void PortalExpr::execute() {
  PORTAL_OBS_SCOPE(execute_scope, "execute/total");
  // leaf_size == 0: auto-tune on a subsample (paper Sec. V-B's empirical
  // leaf-size tuning as a feature).
  bool tuned_leaf = false;
  if (config_.leaf_size == 0) {
    const TuneReport tuned = tune_leaf_size(layers_, config_);
    config_.leaf_size = tuned.best_leaf_size;
    tuned_leaf = true;
  }
  compile_if_needed(); // resets artifacts_, so record the tuner note after
  if (tuned_leaf)
    artifacts_.pipeline_trace +=
        "leaf-size tuner: picked " + std::to_string(config_.leaf_size) + "\n";

  // Backend selection.
  Engine engine = config_.engine;
  const std::string pattern_name = recognize_pattern(plan_, config_);
  if (engine == Engine::Pattern && pattern_name.empty())
    throw std::invalid_argument(
        "Portal: engine=Pattern requested but no specialized kernel matches "
        "this program");
  if (engine == Engine::Auto) {
    // JIT compilation invokes the system compiler (~0.1-0.5s); only worth it
    // when the candidate work (pair count upper bound) amortizes it.
    const double work_estimate =
        static_cast<double>(plan_.layers[0].storage.size()) *
        static_cast<double>(plan_.layers[1].storage.size());
    if (!pattern_name.empty()) {
      engine = Engine::Pattern;
    } else if (plan_.kernel.external == nullptr && !plan_.kernel.is_gravity &&
               jit_available() && (work_estimate > 5e6 || jit_)) {
      engine = Engine::JIT;
    } else {
      engine = Engine::VM;
    }
  }
  if (plan_.kernel.is_gravity && engine != Engine::Pattern)
    throw std::invalid_argument(
        "Portal: the gravity kernel is vector-valued and only runs through "
        "the pattern backend (engine=Auto or Pattern)");

  ExecutionResult result;
  if (engine == Engine::Pattern) {
    PatternDispatch dispatch = try_pattern_execute(plan_, config_, trees_.get());
    artifacts_.chosen_engine = "pattern:" + dispatch.name;
    result = std::move(dispatch.result);
  } else {
    EvaluatorFns fns;
    if (engine == Engine::JIT) {
      if (!jit_) jit_ = std::make_unique<JitModuleHolder>();
      if (!jit_->module) jit_->module = JitModule::compile(plan_);
      if (!jit_->module)
        throw std::invalid_argument(
            "Portal: this kernel cannot be JIT-compiled (external C++ "
            "callback); use engine=VM or Auto");
      fns = jit_->module->evaluators();
      artifacts_.chosen_engine = "jit";
    } else {
      fns = vm_evaluators(plan_.kernel);
      artifacts_.chosen_engine = "vm";
    }
    result = execute_generic(plan_, config_, fns, trees_.get());
  }

  artifacts_.tree_build_seconds = result.tree_seconds;
  artifacts_.traversal_seconds = result.traversal_seconds;
  stats_ = result.stats;
  output_ = Storage(result.output);
  if (obs::enabled())
    obs::instant_event("engine/" + artifacts_.chosen_engine);

  // Validation mode: run the generated brute-force program and compare
  // (approximation problems validate within the tau-derived bound instead).
  if (config_.validate) {
    const Storage brute = executeBruteForce();
    real_t tolerance = config_.validate_tolerance;
    if (plan_.category == ProblemCategory::Approximation)
      tolerance = std::max(
          tolerance,
          config_.tau * static_cast<real_t>(plan_.layers[1].storage.size()));
    const std::string mismatch =
        compare_outputs(brute.output(), output_.output(), tolerance);
    if (!mismatch.empty())
      throw std::runtime_error("Portal validation failed: " + mismatch);
  }
}

Storage PortalExpr::executeBruteForce() {
  compile_if_needed();
  if (plan_.kernel.is_gravity)
    throw std::invalid_argument(
        "Portal: brute-force gravity runs through bh_bruteforce");

  return Storage(
      execute_bruteforce(plan_, config_, vm_evaluators(plan_.kernel)).output);
}

Storage PortalExpr::getOutput() const {
  if (output_.empty())
    throw std::logic_error("PortalExpr::getOutput: call execute() first");
  return output_;
}

} // namespace portal
