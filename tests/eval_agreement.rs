//! Bit-level pin of the concrete oracle. Every operator of the vocabulary
//! — each attribute form, broadcasting and batched matmul included — and
//! one whole graph (`gpt_tp2`'s `G_d`) is evaluated by `entangle-runtime`
//! on seeded inputs, and `f64::to_bits` of every output element is compared
//! against `tests/golden/runtime/eval_bits.txt`.
//!
//! The golden was captured from the hand-written f64 interpreter, before
//! the operator kernels were shared with the symbolic model of
//! `entangle-num`: a differing element is a place where model and oracle
//! disagreed about a float operation or its order. It is argued, never
//! re-blessed wholesale.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test eval_agreement`

use std::collections::HashMap;
use std::fmt::Write as _;

use entangle_ir::{DType, Op};
use entangle_runtime::{eval_graph, eval_op, random_ids, random_value, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One seed per case, from its name: adding a case moves no other.
fn seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn bits_line(out: &mut String, name: &str, v: &Value) {
    write!(out, "{name} {:?}", v.shape()).unwrap();
    for x in v.data() {
        write!(out, " {:016x}", x.to_bits()).unwrap();
    }
    out.push('\n');
}

/// The cases of one run, rendered as they are checked in.
struct Cases {
    out: String,
}

impl Cases {
    /// Evaluates `op` on random `(-1, 1)` inputs of `shapes`.
    fn run(&mut self, name: &str, op: Op, shapes: &[&[usize]]) {
        let mut rng = StdRng::seed_from_u64(seed(name));
        let inputs: Vec<Value> = shapes.iter().map(|s| random_value(&mut rng, s)).collect();
        self.run_on(name, &op, &inputs);
    }

    fn run_on(&mut self, name: &str, op: &Op, inputs: &[Value]) {
        let refs: Vec<&Value> = inputs.iter().collect();
        let v = eval_op(op, &refs).unwrap_or_else(|e| panic!("{name}: {e}"));
        bits_line(&mut self.out, name, &v);
    }
}

/// Random values in `(0.5, 1.5)`: the domain of `sqrt`.
fn positive(rng: &mut StdRng, shape: &[usize]) -> Value {
    let v = random_value(rng, shape);
    Value::new(
        shape.to_vec(),
        v.data().iter().map(|x| 1.0 + 0.5 * x).collect(),
    )
    .unwrap()
}

fn operator_cases() -> String {
    let mut c = Cases { out: String::new() };

    for (tag, op) in [
        ("add", Op::Add),
        ("sub", Op::Sub),
        ("mul", Op::Mul),
        ("div", Op::Div),
        ("maximum", Op::Maximum),
    ] {
        c.run(&format!("{tag}/same"), op.clone(), &[&[3, 4], &[3, 4]]);
        c.run(&format!("{tag}/trailing"), op.clone(), &[&[2, 3, 4], &[4]]);
        c.run(&format!("{tag}/outer"), op.clone(), &[&[3, 1], &[1, 4]]);
        c.run(&format!("{tag}/scalar"), op.clone(), &[&[], &[2, 3]]);
        c.run(&format!("{tag}/lower-rank-lhs"), op, &[&[3, 1], &[2, 3, 4]]);
    }

    for (tag, op) in [
        ("neg", Op::Neg),
        ("exp", Op::Exp),
        ("tanh", Op::Tanh),
        ("gelu", Op::Gelu),
        ("silu", Op::Silu),
        ("relu", Op::Relu),
        ("sigmoid", Op::Sigmoid),
        ("step", Op::Step),
        ("gelu_grad", Op::GeluGrad),
        ("silu_grad", Op::SiluGrad),
        ("ones_like", Op::OnesLike),
        ("cos", Op::Cos),
        ("sin", Op::Sin),
        ("identity", Op::Identity),
        ("sum_all", Op::SumAll),
        ("mean_all", Op::MeanAll),
    ] {
        c.run(tag, op.clone(), &[&[3, 5]]);
        c.run(&format!("{tag}/rank3"), op, &[&[2, 3, 4]]);
    }
    for (tag, op) in [("sqrt", Op::Sqrt), ("rsqrt", Op::Rsqrt)] {
        let mut rng = StdRng::seed_from_u64(seed(tag));
        let x = positive(&mut rng, &[3, 5]);
        c.run_on(tag, &op, &[x]);
    }
    for (numer, denom) in [(3, 7), (-5, 2), (1, 4), (1, -3), (0, 5), (7, 1)] {
        c.run(
            &format!("scalar_mul/{numer}/{denom}"),
            Op::ScalarMul { numer, denom },
            &[&[3, 5]],
        );
    }

    for dim in 0..3 {
        for keepdim in [false, true] {
            c.run(
                &format!("sum_dim/{dim}/{keepdim}"),
                Op::SumDim { dim, keepdim },
                &[&[2, 3, 4]],
            );
            c.run(
                &format!("mean_dim/{dim}/{keepdim}"),
                Op::MeanDim { dim, keepdim },
                &[&[2, 3, 4]],
            );
        }
        c.run(
            &format!("softmax/{dim}"),
            Op::Softmax { dim },
            &[&[2, 3, 4]],
        );
        c.run(
            &format!("slice/{dim}"),
            Op::Slice {
                dim,
                start: 1.into(),
                end: 2.into(),
            },
            &[&[2, 3, 4]],
        );
        c.run(
            &format!("pad/{dim}"),
            Op::Pad {
                dim,
                before: (dim as i64).into(),
                after: 2.into(),
            },
            &[&[2, 3, 4]],
        );
        c.run(
            &format!("all_gather/{dim}"),
            Op::AllGather { dim },
            &[&[2, 3, 4], &[2, 3, 4]],
        );
    }
    c.run("softmax/row", Op::Softmax { dim: 0 }, &[&[5]]);
    c.run(
        "sum_dim/vector",
        Op::SumDim {
            dim: 0,
            keepdim: false,
        },
        &[&[7]],
    );
    c.run(
        "slice/whole",
        Op::Slice {
            dim: 1,
            start: 0.into(),
            end: 3.into(),
        },
        &[&[2, 3]],
    );
    c.run(
        "slice/empty",
        Op::Slice {
            dim: 0,
            start: 1.into(),
            end: 1.into(),
        },
        &[&[2, 3]],
    );

    c.run(
        "reshape/2x6-3x4",
        Op::Reshape {
            shape: vec![3.into(), 4.into()],
        },
        &[&[2, 6]],
    );
    c.run(
        "reshape/flatten",
        Op::Reshape {
            shape: vec![24.into()],
        },
        &[&[2, 3, 4]],
    );
    c.run("transpose/01", Op::Transpose { d0: 0, d1: 1 }, &[&[3, 4]]);
    c.run(
        "transpose/02",
        Op::Transpose { d0: 0, d1: 2 },
        &[&[2, 3, 4]],
    );
    c.run(
        "transpose/21",
        Op::Transpose { d0: 2, d1: 1 },
        &[&[2, 3, 4]],
    );
    c.run("transpose/same", Op::Transpose { d0: 1, d1: 1 }, &[&[2, 3]]);
    c.run(
        "permute/201",
        Op::Permute {
            perm: vec![2, 0, 1],
        },
        &[&[2, 3, 4]],
    );
    c.run(
        "permute/identity",
        Op::Permute { perm: vec![0, 1] },
        &[&[2, 3]],
    );
    c.run(
        "concat/0-three",
        Op::Concat { dim: 0 },
        &[&[1, 3], &[2, 3], &[3, 3]],
    );
    c.run("concat/1", Op::Concat { dim: 1 }, &[&[2, 1, 4], &[2, 2, 4]]);
    c.run("concat/2", Op::Concat { dim: 2 }, &[&[2, 3, 1], &[2, 3, 3]]);
    c.run("concat/one", Op::Concat { dim: 0 }, &[&[2, 3]]);

    c.run("matmul/2d", Op::Matmul, &[&[3, 4], &[4, 5]]);
    c.run("matmul/batched", Op::Matmul, &[&[2, 3, 4], &[2, 4, 5]]);
    c.run("matmul/broadcast-rhs", Op::Matmul, &[&[2, 3, 4], &[4, 5]]);
    c.run("matmul/broadcast-lhs", Op::Matmul, &[&[3, 4], &[2, 4, 5]]);
    c.run(
        "matmul/broadcast-both",
        Op::Matmul,
        &[&[2, 1, 3, 4], &[1, 3, 4, 2]],
    );
    c.run("matmul/inner-one", Op::Matmul, &[&[3, 1], &[1, 2]]);

    for (tag, ids_shape) in [("rank2", &[2usize, 3][..]), ("rank1", &[5][..])] {
        let mut rng = StdRng::seed_from_u64(seed(tag));
        let w = random_value(&mut rng, &[6, 4]);
        let ids = random_ids(&mut rng, ids_shape, 6);
        c.run_on(
            &format!("embedding/{tag}"),
            &Op::Embedding,
            &[w, ids.clone()],
        );
        let mut grad_shape = ids_shape.to_vec();
        grad_shape.push(4);
        let grad = random_value(&mut rng, &grad_shape);
        c.run_on(
            &format!("embedding_grad/{tag}"),
            &Op::EmbeddingGrad { vocab: 6 },
            &[ids.clone(), grad],
        );
        let mut logits_shape = ids_shape.to_vec();
        logits_shape.push(6);
        let logits = random_value(&mut rng, &logits_shape);
        c.run_on(
            &format!("cross_entropy/{tag}"),
            &Op::CrossEntropy,
            &[logits, ids],
        );
    }

    c.run("layer_norm", Op::LayerNorm, &[&[2, 3, 8], &[8], &[8]]);
    c.run("layer_norm/vector", Op::LayerNorm, &[&[5], &[5], &[5]]);
    c.run("rms_norm", Op::RmsNorm, &[&[2, 3, 8], &[8]]);
    c.run("rms_norm/vector", Op::RmsNorm, &[&[5], &[5]]);
    c.run("rope", Op::Rope, &[&[2, 4, 6], &[4, 6], &[4, 6]]);
    c.run("rope/rank2", Op::Rope, &[&[4, 6], &[4, 6], &[4, 6]]);
    // Head widths 4 and 16 scale by an exact power of two, 2 and 8 by a
    // rounded 1/sqrt.
    for (heads, hidden) in [(2, 8), (1, 16), (4, 8), (1, 8)] {
        for causal in [true, false] {
            let shape: &[usize] = &[2, 4, hidden];
            c.run(
                &format!("attention/{heads}x{}/{causal}", hidden / heads),
                Op::Attention { heads, causal },
                &[shape, shape, shape],
            );
        }
    }
    c.run(
        "attention/rank2",
        Op::Attention {
            heads: 2,
            causal: true,
        },
        &[&[4, 8], &[4, 8], &[4, 8]],
    );
    c.run("mse_loss", Op::MseLoss, &[&[3, 4], &[3, 4]]);
    c.run("mse_loss/scalar", Op::MseLoss, &[&[], &[]]);

    c.run("all_reduce/one", Op::AllReduce, &[&[3, 4]]);
    c.run("all_reduce/two", Op::AllReduce, &[&[3, 4], &[3, 4]]);
    c.run(
        "all_reduce/three",
        Op::AllReduce,
        &[&[3, 4], &[3, 4], &[3, 4]],
    );
    for (dim, rank) in [(0, 0), (0, 1), (1, 1)] {
        c.run(
            &format!("reduce_scatter/{dim}/{rank}"),
            Op::ReduceScatter {
                dim,
                rank,
                world: 2,
            },
            &[&[4, 6], &[4, 6]],
        );
    }
    c.run(
        "reduce_scatter/world3",
        Op::ReduceScatter {
            dim: 1,
            rank: 2,
            world: 3,
        },
        &[&[2, 6], &[2, 6], &[2, 6]],
    );
    c.out
}

/// `gpt_tp2`'s distributed graph, whole: a digest of every tensor in node
/// order (so a drift names the first operator that moved) and the full
/// bits of the graph outputs.
fn graph_case() -> String {
    let case = entangle_bench::zoo()
        .into_iter()
        .find(|c| c.name == "gpt_tp2")
        .expect("gpt_tp2 is in the zoo");
    let gd = &case.dist.graph;
    let mut rng = StdRng::seed_from_u64(seed("gpt_tp2"));
    let mut inputs = HashMap::new();
    for &i in gd.inputs() {
        let t = gd.tensor(i);
        let dims: Vec<usize> = t
            .shape
            .as_concrete()
            .expect("concrete zoo shapes")
            .iter()
            .map(|&d| d as usize)
            .collect();
        let v = match t.dtype {
            DType::I64 => random_ids(&mut rng, &dims, 8),
            _ => random_value(&mut rng, &dims),
        };
        inputs.insert(i, v);
    }
    let env = eval_graph(gd, &inputs).expect("gpt_tp2 G_d evaluates");
    let mut out = String::new();
    for node in gd.nodes() {
        let v = &env[&node.output];
        let digest = v.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
        writeln!(
            out,
            "gpt_tp2/{} {} {:?} digest {digest:016x}",
            gd.tensor(node.output).name,
            node.op,
            v.shape()
        )
        .unwrap();
    }
    for &o in gd.outputs() {
        bits_line(
            &mut out,
            &format!("gpt_tp2/output/{}", gd.tensor(o).name),
            &env[&o],
        );
    }
    out
}

#[test]
fn oracle_bits_match_the_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/runtime/eval_bits.txt"
    );
    let got = operator_cases() + &graph_case();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/runtime"))
            .expect("golden dir");
        std::fs::write(path, &got).expect("golden written");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("{path} missing — run UPDATE_GOLDEN=1 cargo test --test eval_agreement")
    });
    // Line by line, so a failure names the case and not a 200 KB string.
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    loop {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => break,
            (g, w) => assert_eq!(
                g,
                w,
                "oracle bits drifted from the golden at case {:?}",
                g.or(w).and_then(|l| l.split(' ').next())
            ),
        }
    }
}

/// Every operator of the vocabulary has a case above: the list of distinct
/// operator names the cases evaluate is the whole of [`Op`].
#[test]
fn every_operator_has_a_case() {
    let cases = operator_cases();
    let mut names: Vec<&str> = cases
        .lines()
        .map(|l| l.split([' ', '/']).next().expect("case name"))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 45, "operators with a case: {names:?}");
}
