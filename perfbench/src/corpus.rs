//! Seeded inputs. Every function here is a pure function of its seed, so
//! a run regenerates identical inputs for every epoch, and two runs with
//! the same `--seed` see the same terms.

use lambda_lang::arena::{ExprArena, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A free variable no generated term contains: a pattern built around it
/// can never be alpha-equivalent to anything ingested.
pub const MISS_VAR: &str = "perfbench_absent";

/// Mixes a run seed with a stream tag and an index into one generator
/// seed (splitmix64 finaliser).
pub fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, tag: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, tag, index))
}

/// Builds one term of `family` (0 balanced, 1 arithmetic, 2 unbalanced)
/// in a scratch arena and copies it into `arena`, alpha-renamed when
/// `rename` is set.
pub fn family_term(
    arena: &mut ExprArena,
    family: u64,
    size: usize,
    rng: &mut StdRng,
    rename: bool,
) -> NodeId {
    let mut scratch = ExprArena::new();
    let root = match family % 3 {
        0 => expr_gen::balanced(&mut scratch, size, rng),
        1 => expr_gen::arithmetic(&mut scratch, size, rng),
        _ => expr_gen::unbalanced(&mut scratch, size, rng),
    };
    if rename {
        lambda_lang::uniquify::uniquify_into(&scratch, root, arena)
    } else {
        arena.import_subtree(&scratch, root)
    }
}

/// The store-shaped corpus: `count` terms of 10, 25, 40 or 55 nodes from
/// the paper's three families, drawn from `count / 2` distinct shapes so
/// that about half the terms are alpha-renamed duplicates of an earlier
/// one. Duplicates are spread through the stream by a seeded shuffle.
pub fn store_shaped(arena: &mut ExprArena, count: usize, seed: u64) -> Vec<NodeId> {
    let pool = (count / 2).max(1);
    let mut order: Vec<usize> = (0..count).map(|i| i % pool).collect();
    let mut shuffle = rng(seed, 102, 0);
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.random_range(0..=i));
    }
    let mut seen = vec![false; pool];
    order
        .into_iter()
        .map(|k| {
            let size = 10 + (k % 4) * 15;
            let rename = std::mem::replace(&mut seen[k], true);
            family_term(
                arena,
                k as u64 % 3,
                size,
                &mut rng(seed, 2, k as u64),
                rename,
            )
        })
        .collect()
}

/// Nodes of the subtree at `root` whose own subtree has at least
/// `min_nodes` nodes, the root included.
pub fn subterms_at_least(arena: &ExprArena, root: NodeId, min_nodes: usize) -> Vec<NodeId> {
    lambda_lang::visit::postorder(arena, root)
        .into_iter()
        .filter(|&n| arena.subtree_size(n) >= min_nodes)
        .collect()
}

/// An alpha-renamed copy of `node` (a term or a subterm) in `dst`.
pub fn renamed_copy(src: &ExprArena, node: NodeId, dst: &mut ExprArena) -> NodeId {
    lambda_lang::uniquify::uniquify_into(src, node, dst)
}

/// A pattern that must miss: `node` applied to [`MISS_VAR`].
pub fn miss_pattern(src: &ExprArena, node: NodeId, dst: &mut ExprArena) -> NodeId {
    let body = renamed_copy(src, node, dst);
    let absent = dst.var_named(MISS_VAR);
    dst.app(absent, body)
}
