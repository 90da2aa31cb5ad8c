//! Distributed transformer builders: TP / SP / VP / EP applied to the zoo
//! models, the way Megatron-LM (and the ByteDance framework) apply them.

use entangle_ir::{DType, DeclaredLayout, GraphBuilder, Op, TensorId};
use entangle_models::{Arch, ModelConfig, MoeConfig};

use crate::dist::{join_shards, Distributed};

/// A combination of distribution strategies.
///
/// `tp` is the tensor-parallel world size; `sp` adds Megatron-style sequence
/// parallelism on top (requires `tp > 1`); `vp` splits the vocabulary
/// projection (vocab parallelism, "similar to TP" per §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strategy {
    /// Tensor-parallel world size (1 = no TP).
    pub tp: usize,
    /// Sequence parallelism (Megatron SP; requires `tp > 1`).
    pub sp: bool,
    /// Vocabulary parallelism for the output head.
    pub vp: bool,
}

impl Strategy {
    /// Pure tensor parallelism of the given degree.
    pub fn tp(tp: usize) -> Strategy {
        Strategy {
            tp,
            sp: false,
            vp: false,
        }
    }

    /// TP + SP of the given degree.
    pub fn tp_sp(tp: usize) -> Strategy {
        Strategy {
            tp,
            sp: true,
            vp: false,
        }
    }

    /// TP + SP + VP (the Figure 4 GPT configuration).
    pub fn tp_sp_vp(tp: usize) -> Strategy {
        Strategy {
            tp,
            sp: true,
            vp: true,
        }
    }

    fn validate(&self, cfg: &ModelConfig) {
        assert!(self.tp >= 1, "tp must be at least 1");
        assert!(!self.sp || self.tp > 1, "SP requires TP > 1");
        assert_eq!(cfg.heads % self.tp, 0, "heads must divide by tp");
        assert_eq!(cfg.ffn % self.tp, 0, "ffn must divide by tp");
        assert_eq!(cfg.hidden % self.tp, 0, "hidden must divide by tp");
        if self.sp {
            assert_eq!(cfg.seq % self.tp, 0, "seq must divide by tp for SP");
        }
        if self.vp {
            assert_eq!(cfg.vocab % self.tp, 0, "vocab must divide by tp for VP");
        }
    }
}

/// Either a full activation tensor or per-rank sequence shards.
#[derive(Clone)]
enum Act {
    Full(TensorId),
    Shards(Vec<TensorId>),
}

struct DistBuilder<'a> {
    g: GraphBuilder,
    cfg: &'a ModelConfig,
    arch: Arch,
    s: Strategy,
    maps: Vec<(String, String)>,
    declared: Vec<(TensorId, DeclaredLayout)>,
    /// Per-rank (cos, sin) hidden shards, if the architecture uses rope.
    rope: Vec<(TensorId, TensorId)>,
}

impl<'a> DistBuilder<'a> {
    fn new(name: &str, cfg: &'a ModelConfig, arch: Arch, s: Strategy) -> Self {
        DistBuilder {
            g: GraphBuilder::new(name),
            cfg,
            arch,
            s,
            maps: Vec::new(),
            declared: Vec::new(),
            rope: Vec::new(),
        }
    }

    fn t(&self) -> usize {
        self.s.tp
    }

    /// A weight kept whole and shared by all ranks.
    fn replicated(&mut self, name: &str, dims: &[i64], dtype: DType) -> TensorId {
        let id = self.g.input(name, dims, dtype);
        self.maps.push((name.to_owned(), name.to_owned()));
        self.declared.push((id, DeclaredLayout::Replicated));
        id
    }

    /// A weight split into `t` shards along `dim`; records the concat map.
    fn sharded(&mut self, name: &str, full_dims: &[i64], dim: usize) -> Vec<TensorId> {
        let t = self.t();
        let mut dims = full_dims.to_vec();
        assert_eq!(
            dims[dim] % t as i64,
            0,
            "{name} dim {dim} must divide by tp"
        );
        dims[dim] /= t as i64;
        let shards: Vec<TensorId> = (0..t)
            .map(|r| {
                let id = self.g.input(&format!("{name}.{r}"), &dims, DType::F32);
                self.declared.push((
                    id,
                    DeclaredLayout::Sharded {
                        dim,
                        index: r,
                        parts: t,
                    },
                ));
                id
            })
            .collect();
        self.maps.push((name.to_owned(), join_shards(name, t, dim)));
        shards
    }

    fn apply(&mut self, name: &str, op: Op, inputs: &[TensorId]) -> TensorId {
        self.g
            .apply(name, op, inputs)
            .unwrap_or_else(|e| panic!("strategy produced invalid op {name}: {e}"))
    }

    fn norm_one(&mut self, name: &str, x: TensorId, w: TensorId, b: Option<TensorId>) -> TensorId {
        match b {
            Some(b) => self.apply(name, Op::LayerNorm, &[x, w, b]),
            None => self.apply(name, Op::RmsNorm, &[x, w]),
        }
    }

    /// Norm + (for SP) all-gather: returns the full-sequence normed tensor
    /// and, when SP, also the per-shard normed tensors.
    fn norm_region(&mut self, prefix: &str, x: &Act) -> TensorId {
        let h = self.cfg.hidden as i64;
        let w = self.replicated(&format!("{prefix}_w"), &[h], DType::F32);
        let b = matches!(self.arch, Arch::Gpt)
            .then(|| self.replicated(&format!("{prefix}_b"), &[h], DType::F32));
        match x {
            Act::Full(x) => self.norm_one(&format!("{prefix}.norm"), *x, w, b),
            Act::Shards(shards) => {
                let normed: Vec<TensorId> = shards
                    .iter()
                    .enumerate()
                    .map(|(r, &xr)| self.norm_one(&format!("{prefix}.norm.{r}"), xr, w, b))
                    .collect();
                self.apply(
                    &format!("{prefix}.gather"),
                    Op::AllGather { dim: 1 },
                    &normed,
                )
            }
        }
    }

    /// Combines per-rank partial sums back into the activation: all-reduce
    /// (TP) or reduce-scatter (TP+SP), then the residual add.
    fn combine_partials(&mut self, prefix: &str, x: &Act, partials: &[TensorId]) -> Act {
        match x {
            Act::Full(x) => {
                let reduced = if partials.len() == 1 {
                    partials[0]
                } else {
                    self.apply(&format!("{prefix}.allreduce"), Op::AllReduce, partials)
                };
                Act::Full(self.apply(&format!("{prefix}.res"), Op::Add, &[*x, reduced]))
            }
            Act::Shards(shards) => {
                let world = shards.len();
                let mut out = Vec::with_capacity(world);
                for (r, &xr) in shards.iter().enumerate() {
                    let shard = self.apply(
                        &format!("{prefix}.rs.{r}"),
                        Op::ReduceScatter {
                            dim: 1,
                            rank: r,
                            world,
                        },
                        partials,
                    );
                    out.push(self.apply(&format!("{prefix}.res.{r}"), Op::Add, &[xr, shard]));
                }
                Act::Shards(out)
            }
        }
    }

    fn attention_block(&mut self, l: usize, x: Act) -> Act {
        let cfg = self.cfg;
        let t = self.t();
        let h = cfg.hidden as i64;
        let p = format!("L{l}");
        let n1 = self.norm_region(&format!("{p}.ln1"), &x);

        let wq = self.sharded(&format!("{p}.wq"), &[h, h], 1);
        let wk = self.sharded(&format!("{p}.wk"), &[h, h], 1);
        let wv = self.sharded(&format!("{p}.wv"), &[h, h], 1);
        let (bq, bk) = if matches!(self.arch, Arch::Qwen2) {
            (
                self.sharded(&format!("{p}.bq"), &[h], 0),
                self.sharded(&format!("{p}.bk"), &[h], 0),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let wo = self.sharded(&format!("{p}.wo"), &[h, h], 0);

        let mut partials = Vec::with_capacity(t);
        for r in 0..t {
            let mut q = self.apply(&format!("{p}.q.{r}"), Op::Matmul, &[n1, wq[r]]);
            let mut k = self.apply(&format!("{p}.k.{r}"), Op::Matmul, &[n1, wk[r]]);
            let v = self.apply(&format!("{p}.v.{r}"), Op::Matmul, &[n1, wv[r]]);
            if !bq.is_empty() {
                q = self.apply(&format!("{p}.qb.{r}"), Op::Add, &[q, bq[r]]);
                k = self.apply(&format!("{p}.kb.{r}"), Op::Add, &[k, bk[r]]);
            }
            if !self.rope.is_empty() {
                let (cos, sin) = self.rope[r];
                q = self.apply(&format!("{p}.q_rope.{r}"), Op::Rope, &[q, cos, sin]);
                k = self.apply(&format!("{p}.k_rope.{r}"), Op::Rope, &[k, cos, sin]);
            }
            let attn = self.apply(
                &format!("{p}.attn.{r}"),
                Op::Attention {
                    heads: cfg.heads / t,
                    causal: cfg.causal,
                },
                &[q, k, v],
            );
            partials.push(self.apply(&format!("{p}.attn_out.{r}"), Op::Matmul, &[attn, wo[r]]));
        }
        self.combine_partials(&format!("{p}.attn"), &x, &partials)
    }

    fn mlp_block(&mut self, l: usize, x: Act) -> Act {
        let cfg = self.cfg;
        let t = self.t();
        let (h, f) = (cfg.hidden as i64, cfg.ffn as i64);
        let p = format!("L{l}");
        let n2 = self.norm_region(&format!("{p}.ln2"), &x);
        let mut partials = Vec::with_capacity(t);
        match self.arch {
            Arch::Gpt => {
                let w1 = self.sharded(&format!("{p}.w1"), &[h, f], 1);
                let w2 = self.sharded(&format!("{p}.w2"), &[f, h], 0);
                for r in 0..t {
                    let up = self.apply(&format!("{p}.mlp_up.{r}"), Op::Matmul, &[n2, w1[r]]);
                    let act = self.apply(&format!("{p}.mlp_act.{r}"), Op::Gelu, &[up]);
                    partials.push(self.apply(
                        &format!("{p}.mlp_down.{r}"),
                        Op::Matmul,
                        &[act, w2[r]],
                    ));
                }
            }
            Arch::Llama | Arch::Qwen2 => {
                let w1 = self.sharded(&format!("{p}.w1"), &[h, f], 1);
                let w3 = self.sharded(&format!("{p}.w3"), &[h, f], 1);
                let w2 = self.sharded(&format!("{p}.w2"), &[f, h], 0);
                for r in 0..t {
                    let gate = self.apply(&format!("{p}.mlp_gate.{r}"), Op::Matmul, &[n2, w1[r]]);
                    let up = self.apply(&format!("{p}.mlp_upproj.{r}"), Op::Matmul, &[n2, w3[r]]);
                    let act = self.apply(&format!("{p}.mlp_silu.{r}"), Op::Silu, &[gate]);
                    let prod = self.apply(&format!("{p}.mlp_mul.{r}"), Op::Mul, &[act, up]);
                    partials.push(self.apply(
                        &format!("{p}.mlp_down.{r}"),
                        Op::Matmul,
                        &[prod, w2[r]],
                    ));
                }
            }
        }
        self.combine_partials(&format!("{p}.mlp"), &x, &partials)
    }

    /// The expert-parallel MoE block: each rank owns a contiguous block of
    /// experts (weights replicated on their owner), computes its partial
    /// gate-weighted sum over the full sequence, and the partials are
    /// all-reduced. The auxiliary loss is computed per rank, scaled by
    /// `1/T`, and all-reduced (the correct Bug 2 discipline).
    fn moe_block(&mut self, l: usize, x: Act, experts: usize) -> (Act, TensorId) {
        let cfg = self.cfg;
        let t = self.t();
        let (h, f, e) = (cfg.hidden as i64, cfg.ffn as i64, experts as i64);
        assert_eq!(experts % t, 0, "experts must divide by tp for EP");
        let p = format!("L{l}");
        let n2 = self.norm_region(&format!("{p}.ln2"), &x);
        let wr = self.replicated(&format!("{p}.wr"), &[h, e], DType::F32);
        let router = self.apply(&format!("{p}.router"), Op::Matmul, &[n2, wr]);
        let gates = self.apply(&format!("{p}.gates"), Op::Softmax { dim: 2 }, &[router]);

        let per_rank = experts / t;
        let mut partials = Vec::with_capacity(t);
        for r in 0..t {
            let mut acc: Option<TensorId> = None;
            for ex in r * per_rank..(r + 1) * per_rank {
                let gate = self.apply(
                    &format!("{p}.gate{ex}"),
                    Op::Slice {
                        dim: 2,
                        start: (ex as i64).into(),
                        end: (ex as i64 + 1).into(),
                    },
                    &[gates],
                );
                let w1 = self.replicated(&format!("{p}.e{ex}_w1"), &[h, f], DType::F32);
                let w2 = self.replicated(&format!("{p}.e{ex}_w2"), &[f, h], DType::F32);
                let up = self.apply(&format!("{p}.e{ex}_gateproj"), Op::Matmul, &[n2, w1]);
                let act = self.apply(&format!("{p}.e{ex}_silu"), Op::Silu, &[up]);
                let down = self.apply(&format!("{p}.e{ex}_down"), Op::Matmul, &[act, w2]);
                let weighted = self.apply(&format!("{p}.e{ex}_weighted"), Op::Mul, &[down, gate]);
                acc = Some(match acc {
                    None => weighted,
                    Some(a) => self.apply(&format!("{p}.moe_sum{ex}"), Op::Add, &[a, weighted]),
                });
            }
            partials.push(acc.expect("each rank owns at least one expert"));
        }
        let out = self.combine_partials(&format!("{p}.moe"), &x, &partials);

        // Per-rank auxiliary loss (replicated computation — each rank's
        // trace has its own nodes), scaled by 1/T before the all-reduce.
        let mut scaled = Vec::with_capacity(t);
        for r in 0..t {
            let load_b = self.apply(
                &format!("{p}.load_b.{r}"),
                Op::MeanDim {
                    dim: 0,
                    keepdim: false,
                },
                &[gates],
            );
            let load = self.apply(
                &format!("{p}.load.{r}"),
                Op::MeanDim {
                    dim: 0,
                    keepdim: false,
                },
                &[load_b],
            );
            let sq = self.apply(&format!("{p}.load_sq.{r}"), Op::Mul, &[load, load]);
            let aux = self.apply(&format!("{p}.aux.{r}"), Op::SumAll, &[sq]);
            scaled.push(self.apply(
                &format!("{p}.aux_scaled.{r}"),
                Op::ScalarMul {
                    numer: 1,
                    denom: t as i64,
                },
                &[aux],
            ));
        }
        let aux = if t == 1 {
            scaled[0]
        } else {
            self.apply(&format!("{p}.aux_allreduce"), Op::AllReduce, &scaled)
        };
        (out, aux)
    }

    fn embed(&mut self) -> Act {
        let cfg = self.cfg;
        let (b, s, h, v) = (
            cfg.batch as i64,
            cfg.seq as i64,
            cfg.hidden as i64,
            cfg.vocab as i64,
        );
        let t = self.t();
        let wtok = self.replicated("wtok", &[v, h], DType::F32);
        if matches!(self.arch, Arch::Llama | Arch::Qwen2) {
            // Rope tables are hidden-sharded per TP rank.
            if t > 1 {
                let hs = h / t as i64;
                for r in 0..t {
                    let cos = self.g.input(&format!("rope_cos.{r}"), &[s, hs], DType::F32);
                    let sin = self.g.input(&format!("rope_sin.{r}"), &[s, hs], DType::F32);
                    for id in [cos, sin] {
                        self.declared.push((
                            id,
                            DeclaredLayout::Sharded {
                                dim: 1,
                                index: r,
                                parts: t,
                            },
                        ));
                    }
                    self.rope.push((cos, sin));
                }
                self.maps
                    .push(("rope_cos".to_owned(), join_shards("rope_cos", t, 1)));
                self.maps
                    .push(("rope_sin".to_owned(), join_shards("rope_sin", t, 1)));
            } else {
                let cos = self.replicated("rope_cos", &[s, h], DType::F32);
                let sin = self.replicated("rope_sin", &[s, h], DType::F32);
                self.rope.push((cos, sin));
            }
        }
        if self.s.sp {
            let t = self.t();
            let ss = s / t as i64;
            let mut shards = Vec::with_capacity(t);
            for r in 0..t {
                let ids = self.g.input(&format!("ids.{r}"), &[b, ss], DType::I64);
                self.declared.push((
                    ids,
                    DeclaredLayout::Sharded {
                        dim: 1,
                        index: r,
                        parts: t,
                    },
                ));
                shards.push(self.apply(&format!("embed.{r}"), Op::Embedding, &[wtok, ids]));
            }
            self.maps.push(("ids".to_owned(), join_shards("ids", t, 1)));
            if matches!(self.arch, Arch::Gpt) {
                let wpos = self.sharded("wpos", &[s, h], 0);
                // `sharded` made F32 inputs named wpos.r of [ss, h].
                for (r, shard) in shards.iter_mut().enumerate() {
                    *shard = self.apply(&format!("pos_embed.{r}"), Op::Add, &[*shard, wpos[r]]);
                }
            }
            Act::Shards(shards)
        } else {
            let ids = self.g.input("ids", &[b, s], DType::I64);
            self.maps.push(("ids".to_owned(), "ids".to_owned()));
            let mut x = self.apply("embed", Op::Embedding, &[wtok, ids]);
            if matches!(self.arch, Arch::Gpt) {
                let wpos = self.replicated("wpos", &[s, h], DType::F32);
                x = self.apply("pos_embed", Op::Add, &[x, wpos]);
            }
            Act::Full(x)
        }
    }

    fn head(&mut self, x: Act) -> TensorId {
        let cfg = self.cfg;
        let (h, v) = (cfg.hidden as i64, cfg.vocab as i64);
        let nf = self.norm_region("ln_f", &x);
        if self.s.vp {
            let wlm = self.sharded("wlm", &[h, v], 1);
            let shards: Vec<TensorId> = (0..self.t())
                .map(|r| self.apply(&format!("logits.{r}"), Op::Matmul, &[nf, wlm[r]]))
                .collect();
            self.apply("logits_gather", Op::AllGather { dim: 2 }, &shards)
        } else {
            let wlm = self.replicated("wlm", &[h, v], DType::F32);
            self.apply("logits", Op::Matmul, &[nf, wlm])
        }
    }
}

/// Applies the strategy to a dense transformer, producing `G_d` and `R_i`.
///
/// # Panics
///
/// Panics when the strategy does not divide the model's dimensions (the
/// same constraint real frameworks enforce; cf. Figure 4's missing
/// parallelism-6 Llama point).
pub fn parallelize(cfg: &ModelConfig, arch: Arch, s: &Strategy) -> Distributed {
    s.validate(cfg);
    let name = format!(
        "dist-tp{}{}{}",
        s.tp,
        if s.sp { "-sp" } else { "" },
        if s.vp { "-vp" } else { "" }
    );
    let mut b = DistBuilder::new(&name, cfg, arch, *s);
    let mut x = b.embed();
    for l in 0..cfg.layers {
        x = b.attention_block(l, x);
        x = b.mlp_block(l, x);
    }
    let logits = b.head(x);
    b.g.mark_output(logits);
    let graph = b.g.finish().expect("strategy output must validate");
    Distributed {
        graph,
        input_maps: b.maps,
        declared: b.declared,
    }
}

/// Applies TP(+SP) to the attention blocks and expert parallelism to the
/// MoE blocks of the ByteDance-style model, producing `G_d` and `R_i`.
///
/// # Panics
///
/// Panics when dimensions or expert counts do not divide by the strategy.
pub fn parallelize_moe(cfg: &MoeConfig, s: &Strategy) -> Distributed {
    s.validate(&cfg.base);
    let name = format!("dist-moe-tp{}{}-ep", s.tp, if s.sp { "-sp" } else { "" });
    let mut b = DistBuilder::new(&name, &cfg.base, Arch::Llama, *s);
    let mut x = b.embed();
    let mut aux_total: Option<TensorId> = None;
    for l in 0..cfg.base.layers {
        x = b.attention_block(l, x);
        let (out, aux) = b.moe_block(l, x, cfg.experts);
        x = out;
        aux_total = Some(match aux_total {
            None => aux,
            Some(acc) => b.apply(&format!("aux_acc{l}"), Op::Add, &[acc, aux]),
        });
    }
    let logits = b.head(x);
    b.g.mark_output(logits);
    if let Some(aux) = aux_total {
        b.g.mark_output(aux);
    }
    let graph = b.g.finish().expect("strategy output must validate");
    Distributed {
        graph,
        input_maps: b.maps,
        declared: b.declared,
    }
}
