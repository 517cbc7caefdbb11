//! The tree decoders are total on node ids: a snapshot or delta whose
//! ids break the forward-allocation invariant (only the root lacks a
//! parent, a parent precedes its child, every edge points to an existing
//! later node that names it as parent) is a typed error — not an index
//! panic in the arena, and not a parent walk or closure walk that never
//! ends. The bytes are assembled by hand: no tree can be driven into
//! these states through its API.

use softborg_program::codec::{self, put_u32, put_u64, put_u8, CodecError};
use softborg_tree::{DeltaError, ExecutionTree};

const PROGRAM: u64 = 7;

/// `(parent id, site, taken)`.
type Parent = Option<(u32, u32, bool)>;
/// `(site, taken, child id)`.
type Edge = (u32, bool, u32);

/// One node in the durable format (`encode_node_into`), visited once,
/// nothing infeasible, ended in success when it is a leaf.
fn put_node(buf: &mut Vec<u8>, parent: Parent, edges: &[Edge]) {
    match parent {
        None => put_u8(buf, 0),
        Some((id, site, taken)) => {
            put_u8(buf, 1);
            put_u32(buf, id);
            put_u32(buf, site);
            put_u8(buf, u8::from(taken));
        }
    }
    put_u32(buf, edges.len() as u32);
    for &(site, taken, child) in edges {
        put_u32(buf, site);
        put_u8(buf, u8::from(taken));
        put_u32(buf, child);
    }
    put_u32(buf, 0); // infeasible arms
    put_u64(buf, 1); // visits
    put_u64(buf, u64::from(edges.is_empty())); // successes
    for _ in 0..3 {
        put_u64(buf, 0); // crashes, deadlocks, hangs
    }
}

fn put_counters(buf: &mut Vec<u8>) {
    put_u64(buf, 1); // paths merged
    put_u64(buf, 1); // distinct paths
    put_u32(buf, 0); // path hashes
}

fn snapshot(nodes: &[(Parent, &[Edge])]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, PROGRAM);
    put_u32(&mut buf, nodes.len() as u32);
    for (parent, edges) in nodes {
        put_node(&mut buf, *parent, edges);
    }
    put_counters(&mut buf);
    buf
}

fn decode(bytes: &[u8]) -> Result<ExecutionTree, CodecError> {
    ExecutionTree::decode(&mut codec::Reader::new(bytes))
}

fn bad_link(what: &'static str, id: usize) -> CodecError {
    CodecError::BadLen { what, len: id }
}

/// root —(0,true)→ 1 —(1,false)→ 2
fn chain() -> Vec<u8> {
    snapshot(&[
        (None, &[(0, true, 1)]),
        (Some((0, 0, true)), &[(1, false, 2)]),
        (Some((1, 1, false)), &[]),
    ])
}

#[test]
fn hand_assembled_snapshot_is_in_the_codec_s_format() {
    let bytes = chain();
    let tree = decode(&bytes).expect("a well-linked snapshot decodes");
    assert_eq!(tree.node_count(), 3);
    let mut again = Vec::new();
    tree.encode_into(&mut again);
    assert_eq!(again, bytes);
}

#[test]
fn child_id_past_the_arena_is_rejected() {
    // Decoded and then read, this indexed `v[7]` of a two-node arena.
    let bytes = snapshot(&[(None, &[(0, true, 7)]), (Some((0, 0, true)), &[])]);
    assert_eq!(decode(&bytes).err(), Some(bad_link("Edge.child", 7)));
}

#[test]
fn self_or_backward_pointing_child_is_rejected() {
    // `is_closed(ROOT)` pushed the root's own id for ever.
    let bytes = snapshot(&[(None, &[(0, true, 0)]), (Some((0, 0, true)), &[])]);
    assert_eq!(decode(&bytes).err(), Some(bad_link("Edge.child", 0)));
    let bytes = snapshot(&[
        (None, &[(0, true, 1)]),
        (Some((0, 0, true)), &[(1, false, 1)]),
    ]);
    assert_eq!(decode(&bytes).err(), Some(bad_link("Edge.child", 1)));
}

#[test]
fn self_or_forward_pointing_parent_is_rejected() {
    // `depth(NodeId(1))` and `prefix` walked 1 → 1 → 1 … for ever.
    for parent in [1, 2, 9] {
        let bytes = snapshot(&[
            (None, &[]),
            (Some((parent, 0, true)), &[]),
            (Some((0, 0, false)), &[]),
        ]);
        assert_eq!(
            decode(&bytes).err(),
            Some(bad_link("Node.parent.id", parent as usize))
        );
    }
}

#[test]
fn second_root_and_parented_root_are_rejected() {
    let bytes = snapshot(&[(None, &[]), (None, &[])]);
    assert_eq!(decode(&bytes).err(), Some(bad_link("Node.parent.id", 0)));
    let bytes = snapshot(&[(Some((0, 0, true)), &[])]);
    assert_eq!(decode(&bytes).err(), Some(bad_link("Node.parent.id", 0)));
    assert_eq!(
        decode(&snapshot(&[])).err(),
        Some(bad_link("Tree.nodes", 0))
    );
}

#[test]
fn edge_whose_child_names_another_parent_site_or_arm_is_rejected() {
    for child_names in [(1, 0, true), (0, 5, true), (0, 0, false)] {
        let bytes = snapshot(&[
            (None, &[(0, true, 2)]),
            (Some((0, 0, false)), &[]),
            (Some(child_names), &[]),
        ]);
        assert_eq!(
            decode(&bytes).err(),
            Some(bad_link("Edge.child.parent", 2)),
            "{child_names:?}"
        );
    }
}

#[test]
fn two_edges_for_one_arm_are_rejected() {
    // The second would be counted by every subtree sum and reached by
    // no lookup.
    let bytes = snapshot(&[
        (None, &[(0, true, 1), (0, true, 2)]),
        (Some((0, 0, true)), &[]),
        (Some((0, 0, true)), &[]),
    ]);
    assert_eq!(decode(&bytes).err(), Some(bad_link("Edge.arm", 2)));
}

/// A delta onto the two-node base root —(0,true)→ 1 that rewrites both
/// nodes and appends node 2.
fn delta(node1_parent: Parent, node1_edges: &[Edge], node2_parent: Parent) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, PROGRAM);
    put_u32(&mut buf, 2); // from
    put_u32(&mut buf, 3); // to
    put_u32(&mut buf, 2); // dirty nodes
    put_u32(&mut buf, 0);
    put_node(&mut buf, None, &[(0, true, 1)]);
    put_u32(&mut buf, 1);
    put_node(&mut buf, node1_parent, node1_edges);
    put_node(&mut buf, node2_parent, &[]);
    put_counters(&mut buf);
    buf
}

fn apply(delta: &[u8]) -> Result<ExecutionTree, DeltaError> {
    let base = snapshot(&[(None, &[(0, true, 1)]), (Some((0, 0, true)), &[])]);
    let mut tree = decode(&base).expect("base decodes");
    tree.apply_delta(&mut codec::Reader::new(delta))?;
    Ok(tree)
}

#[test]
fn hand_assembled_delta_is_in_the_codec_s_format() {
    let tree = apply(&delta(
        Some((0, 0, true)),
        &[(1, false, 2)],
        Some((1, 1, false)),
    ))
    .expect("a well-linked delta applies");
    let mut bytes = Vec::new();
    tree.encode_into(&mut bytes);
    assert_eq!(bytes, chain());
}

#[test]
fn delta_with_forged_ids_is_rejected() {
    let node1 = Some((0, 0, true));
    for (forged, what, id) in [
        // Node 1's new edge: past the patched arena, then to itself.
        (
            delta(node1, &[(1, false, 9)], Some((1, 1, false))),
            "Edge.child",
            9,
        ),
        (
            delta(node1, &[(1, false, 1)], Some((1, 1, false))),
            "Edge.child",
            1,
        ),
        // The appended node: its own parent, then a later node's child.
        (delta(node1, &[], Some((2, 1, false))), "Node.parent.id", 2),
        (delta(node1, &[], Some((7, 1, false))), "Node.parent.id", 7),
        // Node 1's new edge leads to a node that names the root.
        (
            delta(node1, &[(1, false, 2)], Some((0, 1, false))),
            "Edge.child.parent",
            2,
        ),
        // An existing node changes parents: the root's untouched edge to
        // it would count a child that claims another place.
        (
            delta(Some((0, 3, true)), &[], Some((1, 1, false))),
            "TreeDelta.dirty.parent",
            1,
        ),
    ] {
        assert_eq!(
            apply(&forged).err(),
            Some(DeltaError::Codec(bad_link(what, id)))
        );
    }
}

#[test]
fn delta_that_drops_an_edge_is_rejected() {
    // Edges are only ever appended: a root rewritten without its edge to
    // node 1 would leave node 1 a child no subtree counts.
    let mut buf = Vec::new();
    put_u64(&mut buf, PROGRAM);
    put_u32(&mut buf, 2); // from
    put_u32(&mut buf, 2); // to
    put_u32(&mut buf, 1); // dirty nodes
    put_u32(&mut buf, 0);
    put_node(&mut buf, None, &[]);
    put_counters(&mut buf);
    assert_eq!(
        apply(&buf).err(),
        Some(DeltaError::Codec(bad_link("TreeDelta.dirty.edges", 0)))
    );
}
