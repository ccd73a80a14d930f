//! SABRE qubit mapping and routing (Li, Ding, Xie — ASPLOS 2019).
//!
//! Given a logical circuit and a coupling map, SABRE maintains a dynamic
//! layout and a *front layer* of gates whose dependencies are satisfied.
//! Executable gates (1q always; 2q when their operands are adjacent) are
//! emitted immediately; when the front layer is stuck, the SWAP that most
//! reduces a lookahead distance heuristic is inserted. The initial layout
//! is chosen by the standard forward-backward SABRE iteration.

use hgp_circuit::{Circuit, Gate, Instruction};
use hgp_device::CouplingMap;

use crate::layout::Layout;

/// Routing result: a physical circuit plus the layouts at entry and exit.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// Circuit on physical qubit indices (width = device size), with
    /// SWAPs inserted.
    pub circuit: Circuit,
    /// Layout at circuit entry.
    pub initial_layout: Layout,
    /// Layout at circuit exit (SWAPs permute it).
    pub final_layout: Layout,
    /// Number of SWAPs inserted.
    pub n_swaps: usize,
}

/// Weight of the extended (lookahead) set in the SWAP heuristic.
const EXTENDED_WEIGHT: f64 = 0.5;
/// How many future gates the extended set examines.
const EXTENDED_SIZE: usize = 20;

/// Routes `circuit` onto `coupling` starting from `initial_layout`.
///
/// # Panics
///
/// Panics if the layout widths disagree with the circuit/coupling, or if
/// the coupling map is disconnected.
pub fn route(circuit: &Circuit, coupling: &CouplingMap, initial_layout: &Layout) -> RoutedCircuit {
    let mut out = Circuit::new(coupling.n_qubits());
    // Free parameters survive routing untouched.
    out.add_params(circuit.n_params());
    let (final_layout, n_swaps) = sabre_pass(circuit, coupling, initial_layout, Some(&mut out));
    RoutedCircuit {
        circuit: out,
        initial_layout: initial_layout.clone(),
        final_layout,
        n_swaps,
    }
}

/// One SABRE routing pass from `initial_layout`, returning the exit
/// layout and the SWAP count. The routed gates and SWAPs are appended to
/// `out` when given; layout selection ([`choose_initial_layout`]) only
/// needs the exit layout and passes `None`. Emitting never feeds back
/// into the routing decisions, so both uses walk identical passes.
fn sabre_pass(
    circuit: &Circuit,
    coupling: &CouplingMap,
    initial_layout: &Layout,
    mut out: Option<&mut Circuit>,
) -> (Layout, usize) {
    assert_eq!(
        initial_layout.n_logical(),
        circuit.n_qubits(),
        "layout width"
    );
    assert_eq!(
        initial_layout.n_physical(),
        coupling.n_qubits(),
        "device width"
    );
    assert!(coupling.is_connected(), "coupling map must be connected");
    let insts = circuit.instructions();
    // Dependency structure: per instruction, how many unmet predecessors;
    // per qubit, the queue of instruction ids.
    let mut pred_count = vec![0usize; insts.len()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); insts.len()];
    {
        let mut last_on_wire: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
        for (id, inst) in insts.iter().enumerate() {
            for &q in inst.qubits() {
                if let Some(p) = last_on_wire[q] {
                    succs[p].push(id);
                    pred_count[id] += 1;
                }
                last_on_wire[q] = Some(id);
            }
        }
    }
    // Sorted neighbour lists, looked up once per pass rather than once
    // per SWAP candidate.
    let neighbors: Vec<Vec<usize>> = (0..coupling.n_qubits())
        .map(|q| coupling.neighbors(q))
        .collect();
    let mut layout = initial_layout.clone();
    let mut front: Vec<usize> = (0..insts.len()).filter(|&i| pred_count[i] == 0).collect();
    let mut next_front: Vec<usize> = Vec::new();
    let mut emitted = vec![false; insts.len()];
    let mut n_swaps = 0usize;
    let mut decay = vec![1.0f64; coupling.n_qubits()];
    let mut stall_guard = 0usize;
    while !front.is_empty() {
        // Emit every currently executable front gate.
        let mut progressed = false;
        next_front.clear();
        for &id in &front {
            let inst = &insts[id];
            let executable = match inst {
                Instruction::Gate { qubits, .. } if qubits.len() == 2 => {
                    coupling.are_coupled(layout.physical(qubits[0]), layout.physical(qubits[1]))
                }
                _ => true,
            };
            if executable {
                if let Some(out) = out.as_deref_mut() {
                    emit(out, inst, &layout);
                }
                emitted[id] = true;
                progressed = true;
                for &s in &succs[id] {
                    pred_count[s] -= 1;
                    if pred_count[s] == 0 {
                        next_front.push(s);
                    }
                }
            } else {
                next_front.push(id);
            }
        }
        std::mem::swap(&mut front, &mut next_front);
        front.sort_unstable();
        front.dedup();
        if front.is_empty() {
            break;
        }
        if progressed {
            stall_guard = 0;
            decay.iter_mut().for_each(|d| *d = 1.0);
            continue;
        }
        // Stuck: every front gate is a distant 2q gate. Pick the best SWAP.
        stall_guard += 1;
        assert!(
            stall_guard <= 10 * coupling.n_qubits() * coupling.n_qubits(),
            "SABRE failed to make progress (disconnected subgraph?)"
        );
        let blocked: Vec<(usize, usize)> = front
            .iter()
            .filter_map(|&id| match &insts[id] {
                Instruction::Gate { qubits, .. } if qubits.len() == 2 => {
                    Some((qubits[0], qubits[1]))
                }
                _ => None,
            })
            .collect();
        let extended = extended_set(insts, &front, &succs, &pred_count);
        let mut best: Option<((usize, usize), f64)> = None;
        for &(lq1, lq2) in &blocked {
            for &lq in &[lq1, lq2] {
                let p = layout.physical(lq);
                for &nb in &neighbors[p] {
                    let cand = if p < nb { (p, nb) } else { (nb, p) };
                    // Score the trial layout in place: a SWAP is its own
                    // inverse, so swapping back restores `layout` exactly.
                    layout.swap_physical(cand.0, cand.1);
                    let h = heuristic(&blocked, &extended, &layout, coupling)
                        * decay[cand.0].max(decay[cand.1]);
                    layout.swap_physical(cand.0, cand.1);
                    if best.is_none_or(|(_, bh)| h < bh) {
                        best = Some((cand, h));
                    }
                }
            }
        }
        let ((p1, p2), _) = best.expect("blocked front implies swap candidates");
        if let Some(out) = out.as_deref_mut() {
            out.push(Gate::Swap, &[p1, p2]);
        }
        layout.swap_physical(p1, p2);
        decay[p1] += 0.001;
        decay[p2] += 0.001;
        n_swaps += 1;
    }
    debug_assert!(emitted.iter().all(|&e| e));
    (layout, n_swaps)
}

/// The lookahead window: 2q gates reachable soon after the front layer.
fn extended_set(
    insts: &[Instruction],
    front: &[usize],
    succs: &[Vec<usize>],
    pred_count: &[usize],
) -> Vec<(usize, usize)> {
    let mut counts = pred_count.to_vec();
    let mut queue: Vec<usize> = front.to_vec();
    let mut out = Vec::new();
    let mut seen = 0usize;
    while let Some(id) = queue.pop() {
        if seen >= EXTENDED_SIZE {
            break;
        }
        for &s in &succs[id] {
            counts[s] = counts[s].saturating_sub(1);
            if counts[s] == 0 {
                if let Instruction::Gate { qubits, .. } = &insts[s] {
                    if qubits.len() == 2 {
                        out.push((qubits[0], qubits[1]));
                        seen += 1;
                    }
                }
                queue.push(s);
            }
        }
    }
    out
}

/// The SABRE distance heuristic over front and extended sets.
fn heuristic(
    front: &[(usize, usize)],
    extended: &[(usize, usize)],
    layout: &Layout,
    coupling: &CouplingMap,
) -> f64 {
    let dist =
        |&(a, b): &(usize, usize)| coupling.distance(layout.physical(a), layout.physical(b)) as f64;
    let f: f64 = front.iter().map(dist).sum::<f64>() / front.len().max(1) as f64;
    let e: f64 = if extended.is_empty() {
        0.0
    } else {
        extended.iter().map(dist).sum::<f64>() / extended.len() as f64
    };
    f + EXTENDED_WEIGHT * e
}

fn emit(out: &mut Circuit, inst: &Instruction, layout: &Layout) {
    match inst {
        Instruction::Gate { gate, qubits } => {
            let phys: Vec<usize> = qubits.iter().map(|&q| layout.physical(q)).collect();
            out.push(*gate, &phys);
        }
        Instruction::Barrier { .. } => {
            out.barrier();
        }
        Instruction::Measure { qubit, cbit } => {
            out.instructions_mut().push(Instruction::Measure {
                qubit: layout.physical(*qubit),
                cbit: *cbit,
            });
        }
    }
}

/// Chooses an initial layout with the forward-backward SABRE iteration:
/// route forward from a greedy seed, route the reverse circuit from the
/// final layout, and take the layout that results.
pub fn choose_initial_layout(
    circuit: &Circuit,
    coupling: &CouplingMap,
    iterations: usize,
) -> Layout {
    let n = circuit.n_qubits();
    // Greedy seed: put logical qubits on a connected physical region with
    // high connectivity (BFS from the max-degree qubit).
    let start = (0..coupling.n_qubits())
        .max_by_key(|&q| coupling.neighbors(q).len())
        .unwrap_or(0);
    let mut region = vec![start];
    let mut i = 0;
    while region.len() < n {
        let q = region[i];
        for nb in coupling.neighbors(q) {
            if !region.contains(&nb) && region.len() < n {
                region.push(nb);
            }
        }
        i += 1;
        assert!(i <= region.len(), "coupling map too small or disconnected");
    }
    let mut layout = Layout::new(region, coupling.n_qubits());
    let reversed = reverse_circuit(circuit);
    for _ in 0..iterations {
        let (forward_exit, _) = sabre_pass(circuit, coupling, &layout, None);
        layout = sabre_pass(&reversed, coupling, &forward_exit, None).0;
    }
    layout
}

/// The circuit with gate order reversed (parameters untouched — only the
/// interaction pattern matters for layout selection).
fn reverse_circuit(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.n_qubits());
    for inst in circuit.instructions().iter().rev() {
        if let Instruction::Gate { gate, qubits } = inst {
            out.push(*gate, qubits);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_math::Matrix;

    /// Checks routed-circuit semantics: the routed unitary, conjugated by
    /// the entry/exit layout embeddings, equals the original.
    fn assert_equivalent(original: &Circuit, routed: &RoutedCircuit, n_physical: usize) {
        assert!(n_physical <= 10, "test helper limited to small devices");
        let u_orig = original.unitary().expect("bound");
        let u_routed = routed.circuit.unitary().expect("bound");
        let n_log = original.n_qubits();
        let dim_log = 1usize << n_log;
        // For every logical basis state |b>, embed through the initial
        // layout, apply the routed unitary, and read back through the
        // final layout; compare against U|b>.
        for b in 0..dim_log {
            let mut phys_in = 0usize;
            for l in 0..n_log {
                if (b >> l) & 1 == 1 {
                    phys_in |= 1 << routed.initial_layout.physical(l);
                }
            }
            // Column phys_in of u_routed, pulled back through final layout.
            let mut got = vec![hgp_math::Complex64::ZERO; dim_log];
            for row in 0..(1usize << n_physical) {
                let amp = u_routed[(row, phys_in)];
                if amp.norm() < 1e-12 {
                    continue;
                }
                // Decode row into logical bits via the final layout.
                let mut logical = 0usize;
                let mut stray = false;
                for p in 0..n_physical {
                    if (row >> p) & 1 == 1 {
                        match routed.final_layout.logical(p) {
                            Some(l) => logical |= 1 << l,
                            None => stray = true,
                        }
                    }
                }
                assert!(!stray, "amplitude leaked to an unused qubit");
                got[logical] += amp;
            }
            for l in 0..dim_log {
                let expect = u_orig[(l, b)];
                assert!(
                    (got[l] - expect).norm() < 1e-9,
                    "column {b} row {l}: {} vs {}",
                    got[l],
                    expect
                );
            }
        }
        let _ = Matrix::identity(1); // keep import used on all paths
    }

    #[test]
    fn already_routable_circuit_needs_no_swaps() {
        let coupling = CouplingMap::line(4);
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        let layout = Layout::trivial(3, 4);
        let routed = route(&qc, &coupling, &layout);
        assert_eq!(routed.n_swaps, 0);
        assert_eq!(routed.circuit.count_2q_gates(), 2);
    }

    #[test]
    fn distant_gate_gets_swapped() {
        let coupling = CouplingMap::line(4);
        let mut qc = Circuit::new(4);
        qc.cx(0, 3);
        let layout = Layout::trivial(4, 4);
        let routed = route(&qc, &coupling, &layout);
        assert!(routed.n_swaps >= 1);
        for inst in routed.circuit.instructions() {
            if let Instruction::Gate { qubits, .. } = inst {
                if qubits.len() == 2 {
                    assert!(coupling.are_coupled(qubits[0], qubits[1]));
                }
            }
        }
        assert_equivalent(&qc, &routed, 4);
    }

    #[test]
    fn routing_preserves_semantics_on_random_circuit() {
        let coupling = CouplingMap::line(5);
        let mut qc = Circuit::new(5);
        qc.h(0)
            .cx(0, 4)
            .rx(2, 0.7)
            .cx(1, 3)
            .rzz(0, 2, 0.9)
            .cx(4, 1)
            .h(3)
            .cx(2, 4);
        let layout = Layout::trivial(5, 5);
        let routed = route(&qc, &coupling, &layout);
        assert!(routed.n_swaps > 0);
        assert_equivalent(&qc, &routed, 5);
    }

    #[test]
    fn ring_routing_semantics() {
        let coupling = CouplingMap::ring(6);
        let mut qc = Circuit::new(6);
        qc.cx(0, 3).cx(1, 4).cx(2, 5);
        let layout = Layout::trivial(6, 6);
        let routed = route(&qc, &coupling, &layout);
        assert_equivalent(&qc, &routed, 6);
    }

    #[test]
    fn initial_layout_lands_on_connected_region() {
        let coupling = CouplingMap::falcon_16();
        let mut qc = Circuit::new(6);
        for i in 0..6 {
            qc.cx(i, (i + 1) % 6);
        }
        let layout = choose_initial_layout(&qc, &coupling, 2);
        assert_eq!(layout.n_logical(), 6);
        // All chosen qubits distinct and in range (Layout::new enforces),
        // and the region should be reasonably tight: total pairwise
        // distance beats a spread-out placement.
        let spread: usize = (0..6)
            .flat_map(|a| (0..6).map(move |b| (a, b)))
            .map(|(a, b)| coupling.distance(layout.physical(a), layout.physical(b)))
            .sum();
        assert!(spread < 6 * 6 * 4, "layout too spread out: {spread}");
    }

    #[test]
    fn measurements_are_remapped() {
        let coupling = CouplingMap::line(3);
        let mut qc = Circuit::new(2);
        qc.h(0).measure_all();
        let layout = Layout::new(vec![2, 1], 3);
        let routed = route(&qc, &coupling, &layout);
        let mut measures: Vec<(usize, usize)> = routed
            .circuit
            .instructions()
            .iter()
            .filter_map(|i| match i {
                Instruction::Measure { qubit, cbit } => Some((*qubit, *cbit)),
                _ => None,
            })
            .collect();
        measures.sort_unstable();
        assert_eq!(measures, vec![(1, 1), (2, 0)]);
    }
}
