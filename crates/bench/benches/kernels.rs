//! Criterion micro-benchmarks of the simulation kernels.
//!
//! The `fused_*` vs `generic_*` pairs back the workspace's kernel
//! acceptance bar: the fused diagonal/strided kernels must beat the
//! generic branch-per-index `apply_operator` path by >= 2x on a
//! 16-qubit QAOA layer. `statevector_qaoa_20q` exercises the
//! rayon-chunked wide-register path (fan-out engages automatically on
//! multi-core hosts; set `RAYON_NUM_THREADS` to pin the worker count).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hgp_circuit::{Circuit, Gate, Param};
use hgp_device::Backend;
use hgp_math::Complex64;
use hgp_mitigation::M3Mitigator;
use hgp_noise::ReadoutModel;
use hgp_pulse::calibration::PulseLibrary;
use hgp_pulse::propagator::drive_propagator;
use hgp_pulse::propagator::reference::drive_propagator_reference;
use hgp_pulse::Waveform;
use hgp_sim::{kernels, Counts, DensityMatrix, SimBackend, StateVector};
use hgp_transpile::{TranspileOptions, Transpiler};

fn qaoa_like(n: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    for q in 0..n {
        qc.h(q);
    }
    for q in 0..n {
        qc.rzz(q, (q + 1) % n, 0.4);
    }
    for q in 0..n {
        qc.rx(q, 0.8);
    }
    qc
}

fn bench_statevector(c: &mut Criterion) {
    let qc = qaoa_like(10);
    c.bench_function("statevector_qaoa_10q", |b| {
        b.iter(|| StateVector::execute(black_box(&qc)).expect("bound"))
    });
}

fn bench_statevector_wide(c: &mut Criterion) {
    // The rayon-chunked path: one full QAOA layer on a 20-qubit register
    // (1M amplitudes).
    let qc = qaoa_like(20);
    c.bench_function("statevector_qaoa_20q", |b| {
        b.iter(|| StateVector::execute(black_box(&qc)).expect("bound"))
    });
}

/// One QAOA layer (ring RZZ cost + RX mixer) on raw amplitudes through
/// the fused/strided kernels: the whole diagonal cost layer is one
/// sweep, the mixer uses the strided dense kernel.
fn fused_layer(amps: &mut [Complex64], n: usize) {
    let rzz = kernels::diagonal_2q(&Gate::Rzz(Param::bound(0.4))).expect("diagonal");
    let rx = Gate::Rx(Param::bound(0.8)).matrix().expect("bound");
    let cost: Vec<kernels::DiagOp> = (0..n)
        .map(|q| kernels::DiagOp::Two {
            t_hi: q,
            t_lo: (q + 1) % n,
            d: rzz,
        })
        .collect();
    kernels::apply_diag_fused(amps, &cost);
    for q in 0..n {
        kernels::apply_dense_1q(amps, q, &rx);
    }
}

/// The same layer through the generic branch-per-index reference path.
fn generic_layer(amps: &mut [Complex64], n: usize) {
    let rzz = Gate::Rzz(Param::bound(0.4)).matrix().expect("bound");
    let rx = Gate::Rx(Param::bound(0.8)).matrix().expect("bound");
    for q in 0..n {
        kernels::reference::apply_2q(amps, q, (q + 1) % n, &rzz);
    }
    for q in 0..n {
        kernels::reference::apply_1q(amps, q, &rx);
    }
}

fn bench_fused_vs_generic_16q(c: &mut Criterion) {
    let n = 16;
    let base: Vec<Complex64> = StateVector::plus_state(n).amplitudes().to_vec();
    let mut amps = base.clone();
    c.bench_function("qaoa_layer_16q_fused", |b| {
        b.iter(|| {
            amps.copy_from_slice(&base);
            fused_layer(black_box(&mut amps), n);
        })
    });
    let mut amps = base.clone();
    c.bench_function("qaoa_layer_16q_generic", |b| {
        b.iter(|| {
            amps.copy_from_slice(&base);
            generic_layer(black_box(&mut amps), n);
        })
    });
}

fn bench_diag_rzz_16q(c: &mut Criterion) {
    let n = 16;
    let diag = kernels::diagonal_2q(&Gate::Rzz(Param::bound(0.4))).expect("diagonal");
    let dense = Gate::Rzz(Param::bound(0.4)).matrix().expect("bound");
    let mut amps: Vec<Complex64> = StateVector::plus_state(n).amplitudes().to_vec();
    c.bench_function("rzz_16q_fused_diag", |b| {
        b.iter(|| kernels::apply_diag_2q(black_box(&mut amps), 7, 3, diag))
    });
    c.bench_function("rzz_16q_generic", |b| {
        b.iter(|| kernels::reference::apply_2q(black_box(&mut amps), 7, 3, &dense))
    });
}

fn bench_density_gate(c: &mut Criterion) {
    let cx = Gate::CX.matrix().expect("bound");
    c.bench_function("density_cx_8q", |b| {
        let mut rho = DensityMatrix::plus_state(8);
        b.iter(|| rho.apply_unitary(black_box(&cx), &[0, 1]))
    });
}

fn bench_density_kraus(c: &mut Criterion) {
    let kraus = hgp_noise::channels::thermal_relaxation(100.0, 80.0, 0.1);
    c.bench_function("density_thermal_relax_8q", |b| {
        let mut rho = DensityMatrix::plus_state(8);
        b.iter(|| rho.apply_kraus(black_box(&kraus), &[3]))
    });
}

fn bench_pulse_propagator(c: &mut Criterion) {
    let w = Waveform::gaussian(320);
    c.bench_function("drive_propagator_320dt", |b| {
        b.iter(|| drive_propagator(black_box(&w), 0.1, 0.3, 0.001, 0.125))
    });
    // The per-step heap loop the stack fold replaced (bit-identical).
    c.bench_function("drive_propagator_320dt_reference", |b| {
        b.iter(|| drive_propagator_reference(black_box(&w), 0.1, 0.3, 0.001, 0.125))
    });
}

fn bench_cx_schedule(c: &mut Criterion) {
    let backend = Backend::ibmq_toronto();
    let lib = PulseLibrary::new(&backend);
    c.bench_function("cx_pulse_schedule_compile", |b| {
        b.iter(|| {
            let s = lib.cx_schedule(0, 1);
            hgp_pulse::propagator::compile_schedule(black_box(&s), &backend)
        })
    });
}

fn bench_sabre(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let qc = qaoa_like(8);
    let transpiler = Transpiler::new(&backend);
    let options = TranspileOptions::default();
    c.bench_function("sabre_route_qaoa_8q", |b| {
        b.iter(|| transpiler.run(black_box(&qc), &options))
    });
}

fn bench_m3(c: &mut Criterion) {
    let model = ReadoutModel::uniform(6, 0.03);
    let m3 = M3Mitigator::from_readout_model(&model);
    // A spread-out record: 40 observed bitstrings.
    let mut counts = Counts::new(6);
    for b in 0..40usize {
        counts.record(b, (b as u64 % 7) * 13 + 5);
    }
    c.bench_function("m3_solve_40_bitstrings", |b| {
        b.iter(|| m3.apply(black_box(&counts)))
    });
}

fn bench_eigh(c: &mut Criterion) {
    let h = hgp_math::pauli::sigma_x().kron(&hgp_math::pauli::sigma_z());
    c.bench_function("eigh_4x4", |b| {
        b.iter(|| hgp_math::eigen::eigh(black_box(&h)))
    });
}

criterion_group!(
    kernels,
    bench_statevector,
    bench_statevector_wide,
    bench_fused_vs_generic_16q,
    bench_diag_rzz_16q,
    bench_density_gate,
    bench_density_kraus,
    bench_pulse_propagator,
    bench_cx_schedule,
    bench_sabre,
    bench_m3,
    bench_eigh
);
criterion_main!(kernels);
