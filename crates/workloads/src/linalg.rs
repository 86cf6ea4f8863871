//! Table 1 workloads: the Conjugate Gradient algorithm and nine
//! Numerical-Recipes-style linear algebra routines, written clean-room.
//!
//! Size mapping (paper → ours; the simulator's capacity scale of 128
//! keeps the working-set/cluster-memory ratios): routines whose paper
//! sizes stayed inside the 16 MB cluster memory stay inside our 128 KB
//! scaled cluster memory; `mprove` (and, mildly, CG) exceed it exactly
//! as the paper describes ("for sizes greater than 800, the amount of
//! data needed in the serial version exceeds the size of physical
//! memory, causing thrashing, whereas the data of the parallel version
//! fits in the larger global memory").

use crate::Workload;

/// All ten Table 1 workloads in table order.
pub fn all() -> Vec<Workload> {
    vec![
        cg(184),
        ludcmp(128),
        lubksb(128),
        sparse(256),
        gaussj(96),
        svbksb(112),
        svdcmp(96),
        mprove(192),
        toeplz(192),
        tridag(512),
    ]
}

/// Conjugate gradient on a dense SPD system (paper size 400, speedup
/// 163×: library dot products plus the serial version's memory
/// pressure).
pub fn cg(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM CGRUN
      PARAMETER (N = {n}, NITER = 8)
      REAL A(N, N), B(N), X(N), R(N), P(N), Q(N), Z(N)
      REAL CHKSUM
      DO 20 J = 1, N
        DO 10 I = 1, N
          A(I, J) = 1.0 / (1.0 + 3.0 * ABS(REAL(I - J)))
   10   CONTINUE
        A(J, J) = A(J, J) + REAL(N)
   20 CONTINUE
      DO 30 I = 1, N
        B(I) = 1.0 + 0.001 * REAL(I)
   30 CONTINUE
      CALL TSTART
      CALL CG(A, B, X, R, P, Q, Z, N, NITER)
      CALL TSTOP
      CHKSUM = 0.0
      DO 40 I = 1, N
        CHKSUM = CHKSUM + X(I)
   40 CONTINUE
      END

      SUBROUTINE CG(A, B, X, R, P, Q, Z, N, NITER)
      INTEGER N, NITER
      REAL A(N, N), B(N), X(N), R(N), P(N), Q(N), Z(N)
      REAL RZ, RZNEW, PQ, ALPHA, BETA, T
      DO 10 I = 1, N
        X(I) = 0.0
        R(I) = B(I)
        P(I) = B(I)
   10 CONTINUE
      RZ = 0.0
      DO 20 I = 1, N
        RZ = RZ + R(I) * R(I)
   20 CONTINUE
      DO 90 IT = 1, NITER
        DO 40 I = 1, N
          T = 0.0
          DO 30 J = 1, N
            T = T + A(J, I) * P(J)
   30     CONTINUE
          Q(I) = T
   40   CONTINUE
        PQ = 0.0
        DO 50 I = 1, N
          PQ = PQ + P(I) * Q(I)
   50   CONTINUE
        ALPHA = RZ / PQ
        DO 60 I = 1, N
          X(I) = X(I) + ALPHA * P(I)
          R(I) = R(I) - ALPHA * Q(I)
   60   CONTINUE
        RZNEW = 0.0
        DO 70 I = 1, N
          RZNEW = RZNEW + R(I) * R(I)
   70   CONTINUE
        BETA = RZNEW / RZ
        RZ = RZNEW
        DO 80 I = 1, N
          P(I) = R(I) + BETA * P(I)
   80   CONTINUE
   90 CONTINUE
      END
"
    );
    Workload {
        name: "CG",
        paper_size: 400,
        size: n,
        source,
        watch: vec!["chksum", "x"],
        key_technique: "library dot product (two-level parallel reduction)",
    }
}

/// LU decomposition (Crout-style elimination; paper size 1000, 9.2×).
pub fn ludcmp(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM LURUN
      PARAMETER (N = {n})
      REAL A(N, N), CHKSUM
      DO 20 J = 1, N
        DO 10 I = 1, N
          A(I, J) = 1.0 / (1.0 + 2.0 * ABS(REAL(I - J)))
   10   CONTINUE
        A(J, J) = A(J, J) + REAL(N)
   20 CONTINUE
      CALL TSTART
      CALL LUDCMP(A, N)
      CALL TSTOP
      CHKSUM = 0.0
      DO 30 I = 1, N
        CHKSUM = CHKSUM + A(I, I)
   30 CONTINUE
      END

      SUBROUTINE LUDCMP(A, N)
      INTEGER N
      REAL A(N, N), PIV
      DO 40 K = 1, N - 1
        PIV = 1.0 / A(K, K)
        DO 10 I = K + 1, N
          A(I, K) = A(I, K) * PIV
   10   CONTINUE
        DO 30 J = K + 1, N
          DO 20 I = K + 1, N
            A(I, J) = A(I, J) - A(I, K) * A(K, J)
   20     CONTINUE
   30   CONTINUE
   40 CONTINUE
      END
"
    );
    Workload {
        name: "ludcmp",
        paper_size: 1000,
        size: n,
        source,
        watch: vec!["chksum"],
        key_technique: "DOALL elimination updates; serial pivot chain",
    }
}

/// LU back-substitution (paper size 1000, 6.8×: serial outer recurrence,
/// parallel inner reductions).
pub fn lubksb(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM LBRUN
      PARAMETER (N = {n})
      REAL A(N, N), B(N), CHKSUM
      DO 20 J = 1, N
        DO 10 I = 1, N
          A(I, J) = 1.0 / (1.0 + 2.0 * ABS(REAL(I - J)))
   10   CONTINUE
        A(J, J) = A(J, J) + REAL(N)
   20 CONTINUE
      DO 30 I = 1, N
        B(I) = 0.5 + 0.01 * REAL(I)
   30 CONTINUE
      CALL TSTART
      CALL LUBKSB(A, B, N)
      CALL TSTOP
      CHKSUM = 0.0
      DO 40 I = 1, N
        CHKSUM = CHKSUM + B(I)
   40 CONTINUE
      END

      SUBROUTINE LUBKSB(A, B, N)
      INTEGER N
      REAL A(N, N), B(N), T
      DO 20 I = 2, N
        T = B(I)
        DO 10 J = 1, I - 1
          T = T - A(I, J) * B(J)
   10   CONTINUE
        B(I) = T
   20 CONTINUE
      DO 40 I = N, 1, -1
        T = B(I)
        DO 30 J = I + 1, N
          T = T - A(I, J) * B(J)
   30   CONTINUE
        B(I) = T / A(I, I)
   40 CONTINUE
      END
"
    );
    Workload {
        name: "lubksb",
        paper_size: 1000,
        size: n,
        source,
        watch: vec!["chksum"],
        key_technique: "parallel inner-product library calls under a serial recurrence",
    }
}

/// Sparse matrix–vector iteration in row-pointer storage (paper size
/// 800, 29×: gather reads do not block DOALL).
pub fn sparse(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM SPRUN
      PARAMETER (N = {n}, NDIAG = 16, NNZ = N * NDIAG, NITER = 6)
      REAL VAL(NNZ), X(N), Y(N), CHKSUM
      INTEGER COL(NNZ), ROWST(N + 1)
      K = 0
      DO 20 I = 1, N
        ROWST(I) = K + 1
        DO 10 J = 1, NDIAG
          K = K + 1
          COL(K) = MOD(I * 3 + J * 7, N) + 1
          VAL(K) = 1.0 / REAL(I + J)
   10   CONTINUE
   20 CONTINUE
      ROWST(N + 1) = K + 1
      DO 30 I = 1, N
        X(I) = 1.0 + 0.001 * REAL(I)
   30 CONTINUE
      CALL TSTART
      DO 50 IT = 1, NITER
        CALL SPMV(VAL, COL, ROWST, X, Y, N)
        DO 40 I = 1, N
          X(I) = 0.9 * X(I) + 0.1 * Y(I)
   40   CONTINUE
   50 CONTINUE
      CALL TSTOP
      CHKSUM = 0.0
      DO 60 I = 1, N
        CHKSUM = CHKSUM + X(I)
   60 CONTINUE
      END

      SUBROUTINE SPMV(VAL, COL, ROWST, X, Y, N)
      INTEGER N, COL(*), ROWST(N + 1)
      REAL VAL(*), X(N), Y(N), T
      DO 20 I = 1, N
        T = 0.0
        DO 10 K = ROWST(I), ROWST(I + 1) - 1
          T = T + VAL(K) * X(COL(K))
   10   CONTINUE
        Y(I) = T
   20 CONTINUE
      END
"
    );
    Workload {
        name: "sparse",
        paper_size: 800,
        size: n,
        source,
        watch: vec!["chksum"],
        key_technique: "DOALL over rows despite indirect (gather) reads",
    }
}

/// Gauss–Jordan elimination with hoisted pivot row (paper size 600,
/// 10×).
pub fn gaussj(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM GJRUN
      PARAMETER (N = {n})
      REAL A(N, N), B(N), ROWK(N), CHKSUM, PIV, F, BK
      DO 20 J = 1, N
        DO 10 I = 1, N
          A(I, J) = 1.0 / (1.0 + 2.0 * ABS(REAL(I - J)))
   10   CONTINUE
        A(J, J) = A(J, J) + REAL(N)
   20 CONTINUE
      DO 30 I = 1, N
        B(I) = 1.0 + 0.01 * REAL(I)
   30 CONTINUE
      CALL TSTART
      DO 90 K = 1, N
        PIV = 1.0 / A(K, K)
        DO 40 J = 1, N
          A(K, J) = A(K, J) * PIV
          ROWK(J) = A(K, J)
   40   CONTINUE
        B(K) = B(K) * PIV
        BK = B(K)
        DO 60 I = 1, K - 1
          F = A(I, K)
          DO 50 J = 1, N
            A(I, J) = A(I, J) - F * ROWK(J)
   50     CONTINUE
          B(I) = B(I) - F * BK
   60   CONTINUE
        DO 80 I = K + 1, N
          F = A(I, K)
          DO 70 J = 1, N
            A(I, J) = A(I, J) - F * ROWK(J)
   70     CONTINUE
          B(I) = B(I) - F * BK
   80   CONTINUE
   90 CONTINUE
      CALL TSTOP
      CHKSUM = 0.0
      DO 95 I = 1, N
        CHKSUM = CHKSUM + B(I)
   95 CONTINUE
      END
"
    );
    Workload {
        name: "gaussj",
        paper_size: 600,
        size: n,
        source,
        watch: vec!["chksum"],
        key_technique: "DOALL row updates with privatized multiplier",
    }
}

/// SVD back-substitution (paper size 200, 32×: two clean n² sweeps).
pub fn svbksb(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM SVRUN
      PARAMETER (N = {n})
      REAL U(N, N), V(N, N), W(N), B(N), X(N), TMP(N), CHKSUM, S
      DO 20 J = 1, N
        DO 10 I = 1, N
          U(I, J) = SIN(0.1 * REAL(I * J))
          V(I, J) = COS(0.1 * REAL(I + J))
   10   CONTINUE
   20 CONTINUE
      DO 30 I = 1, N
        W(I) = 1.0 + 0.5 * REAL(I)
        B(I) = 1.0 / REAL(I)
   30 CONTINUE
      CALL TSTART
      DO 50 J = 1, N
        S = 0.0
        IF (W(J) .NE. 0.0) THEN
          DO 40 I = 1, N
            S = S + U(I, J) * B(I)
   40     CONTINUE
          S = S / W(J)
        END IF
        TMP(J) = S
   50 CONTINUE
      DO 70 J = 1, N
        S = 0.0
        DO 60 K = 1, N
          S = S + V(J, K) * TMP(K)
   60   CONTINUE
        X(J) = S
   70 CONTINUE
      CALL TSTOP
      CHKSUM = 0.0
      DO 80 I = 1, N
        CHKSUM = CHKSUM + X(I)
   80 CONTINUE
      END
"
    );
    Workload {
        name: "svbksb",
        paper_size: 200,
        size: n,
        source,
        watch: vec!["chksum", "x"],
        key_technique: "DOALL over columns with privatized accumulator",
    }
}

/// Householder bidiagonalization — the compute core of `svdcmp`
/// (paper size 200, 7.2×: a serial elimination chain over parallel
/// column updates).
pub fn svdcmp(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM SDRUN
      PARAMETER (N = {n})
      REAL A(N, N), D(N), CHKSUM, S, BETA, T
      DO 20 J = 1, N
        DO 10 I = 1, N
          A(I, J) = SIN(0.05 * REAL(I * J)) + 2.0 / REAL(I + J)
   10   CONTINUE
        A(J, J) = A(J, J) + 4.0
   20 CONTINUE
      CALL TSTART
      DO 80 K = 1, N - 1
        S = 0.0
        DO 30 I = K, N
          S = S + A(I, K) * A(I, K)
   30   CONTINUE
        D(K) = SQRT(S)
        BETA = 1.0 / (S + 1.0E-6)
        DO 60 J = K + 1, N
          T = 0.0
          DO 40 I = K, N
            T = T + A(I, K) * A(I, J)
   40     CONTINUE
          T = T * BETA
          DO 50 I = K, N
            A(I, J) = A(I, J) - T * A(I, K)
   50     CONTINUE
   60   CONTINUE
   80 CONTINUE
      CALL TSTOP
      D(N) = A(N, N)
      CHKSUM = 0.0
      DO 90 I = 1, N
        CHKSUM = CHKSUM + D(I)
   90 CONTINUE
      END
"
    );
    Workload {
        name: "svdcmp",
        paper_size: 200,
        size: n,
        source,
        watch: vec!["chksum"],
        key_technique: "DOALL Householder column updates under a serial chain",
    }
}

/// Iterative improvement of a linear solve (paper size 1000, **1079×**:
/// the serial version's two-matrix working set thrashes cluster memory;
/// the parallel version's data lives in the larger global memory).
pub fn mprove(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM MPRUN
      PARAMETER (N = {n}, NITER = 4)
      REAL A(N, N), ALUD(N, N), B(N), X(N), R(N), CHKSUM
      DO 20 J = 1, N
        DO 10 I = 1, N
          A(I, J) = 1.0 / (1.0 + 2.0 * ABS(REAL(I - J)))
          ALUD(I, J) = A(I, J) * 0.01
   10   CONTINUE
        A(J, J) = A(J, J) + REAL(N)
        ALUD(J, J) = A(J, J)
   20 CONTINUE
      DO 30 I = 1, N
        B(I) = 1.0 + 0.01 * REAL(I)
        X(I) = B(I) / A(I, I)
   30 CONTINUE
      CALL TSTART
      DO 40 IT = 1, NITER
        CALL MPROVE(A, ALUD, B, X, R, N)
   40 CONTINUE
      CALL TSTOP
      CHKSUM = 0.0
      DO 50 I = 1, N
        CHKSUM = CHKSUM + X(I)
   50 CONTINUE
      END

      SUBROUTINE MPROVE(A, ALUD, B, X, R, N)
      INTEGER N
      REAL A(N, N), ALUD(N, N), B(N), X(N), R(N), S, T
      DO 20 I = 1, N
        S = -B(I)
        DO 10 J = 1, N
          S = S + A(I, J) * X(J)
   10   CONTINUE
        R(I) = S
   20 CONTINUE
C     solve ALUD * dx = r (forward/back sweeps on the stored factors)
      DO 40 I = 2, N
        T = R(I)
        DO 30 J = 1, I - 1
          T = T - ALUD(I, J) * R(J)
   30   CONTINUE
        R(I) = T
   40 CONTINUE
      DO 60 I = N, 1, -1
        T = R(I)
        DO 50 J = I + 1, N
          T = T - ALUD(I, J) * R(J)
   50   CONTINUE
        R(I) = T / ALUD(I, I)
   60 CONTINUE
      DO 70 I = 1, N
        X(I) = X(I) - R(I)
   70 CONTINUE
      END
"
    );
    Workload {
        name: "mprove",
        paper_size: 1000,
        size: n,
        source,
        watch: vec!["chksum"],
        key_technique: "global-memory placement rescues a thrashing working set",
    }
}

/// Toeplitz system solve by iterative bordering (paper size 800, 1.3×:
/// short coupled inner loops defeat parallel gain).
pub fn toeplz(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM TZRUN
      PARAMETER (N = {n})
      REAL TR(2 * N - 1), Y(N), X(N), G(N), H(N), CHKSUM
      REAL SXN, SGN, DENOM
      DO 10 I = 1, 2 * N - 1
        TR(I) = 1.0 / (1.0 + 0.3 * ABS(REAL(I - N)))
   10 CONTINUE
      TR(N) = TR(N) + 4.0
      DO 20 I = 1, N
        Y(I) = 1.0 + 0.01 * REAL(I)
   20 CONTINUE
      X(1) = Y(1) / TR(N)
      G(1) = TR(N - 1) / TR(N)
      CALL TSTART
      DO 90 M = 2, N
        SXN = -Y(M)
        SGN = -TR(N - M + 1)
        DO 30 J = 1, M - 1
          SXN = SXN + TR(N + M - J) * X(J)
          SGN = SGN + TR(N + M - J) * G(J)
   30   CONTINUE
        DENOM = SGN - TR(N)
        X(M) = SXN / DENOM
        DO 40 J = 1, M - 1
          H(J) = X(J) - X(M) * G(J)
   40   CONTINUE
        DO 50 J = 1, M - 1
          X(J) = H(J)
   50   CONTINUE
        IF (M .LT. N) THEN
          SGN = -TR(N - M)
          DO 60 J = 1, M - 1
            SGN = SGN + TR(N - M + J) * G(J)
   60     CONTINUE
          G(M) = SGN / DENOM
          DO 70 J = 1, M - 1
            H(J) = G(J) - G(M) * G(M - J)
   70     CONTINUE
          DO 80 J = 1, M - 1
            G(J) = H(J)
   80     CONTINUE
        END IF
   90 CONTINUE
      CALL TSTOP
      CHKSUM = 0.0
      DO 95 I = 1, N
        CHKSUM = CHKSUM + X(I)
   95 CONTINUE
      END
"
    );
    Workload {
        name: "toeplz",
        paper_size: 800,
        size: n,
        source,
        watch: vec!["chksum"],
        key_technique: "Levinson recursion: short, coupled loops resist parallelism",
    }
}

/// Tridiagonal solve (paper size 800, 2.1×: first-order recurrences).
pub fn tridag(n: usize) -> Workload {
    let source = format!(
        "
      PROGRAM TDRUN
      PARAMETER (N = {n}, NITER = 10)
      REAL A(N), B(N), C(N), R(N), U(N), GAM(N), CHKSUM
      DO 10 I = 1, N
        A(I) = -1.0
        B(I) = 4.0 + 0.001 * REAL(I)
        C(I) = -1.0
        R(I) = 1.0 + 0.01 * REAL(I)
   10 CONTINUE
      CALL TSTART
      DO 20 IT = 1, NITER
        CALL TRIDAG(A, B, C, R, U, GAM, N)
        DO 15 I = 1, N
          R(I) = 0.5 * R(I) + 0.5 * U(I)
   15   CONTINUE
   20 CONTINUE
      CALL TSTOP
      CHKSUM = 0.0
      DO 30 I = 1, N
        CHKSUM = CHKSUM + U(I)
   30 CONTINUE
      END

      SUBROUTINE TRIDAG(A, B, C, R, U, GAM, N)
      INTEGER N
      REAL A(N), B(N), C(N), R(N), U(N), GAM(N), BET
      BET = B(1)
      U(1) = R(1) / BET
      DO 10 J = 2, N
        GAM(J) = C(J - 1) / BET
        BET = B(J) - A(J) * GAM(J)
        U(J) = (R(J) - A(J) * U(J - 1)) / BET
   10 CONTINUE
      DO 20 J = N - 1, 1, -1
        U(J) = U(J) - GAM(J + 1) * U(J + 1)
   20 CONTINUE
      END
"
    );
    Workload {
        name: "tridag",
        paper_size: 800,
        size: n,
        source,
        watch: vec!["chksum"],
        key_technique: "first-order recurrences serialize both sweeps",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_restructure::{restructure, PassConfig};
    use cedar_sim::MachineConfig;

    /// Compile, restructure, run both, assert result equivalence.
    fn check(w: &Workload) -> (f64, f64) {
        let p0 = w.compile();
        let r = restructure(&p0, &PassConfig::automatic_1991());
        let mc = MachineConfig::cedar_config1_scaled();
        let s0 =
            cedar_sim::run(&p0, mc.clone()).unwrap_or_else(|e| panic!("{} serial: {e}", w.name));
        let s1 = cedar_sim::run(&r.program, mc).unwrap_or_else(|e| {
            panic!("{} restructured: {e}\n{}", w.name, cedar_ir::print::print_program(&r.program))
        });
        for v in &w.watch {
            let a = s0.read_f64(v).unwrap_or_else(|| panic!("{}: no {v}", w.name));
            let b = s1.read_f64(v).unwrap_or_else(|| panic!("{}: no {v} (par)", w.name));
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0), "{}: {v}: {x} vs {y}", w.name);
            }
        }
        (s0.cycles(), s1.cycles())
    }

    // Small-size equivalence smoke tests (fast); full-size runs live in
    // the experiment harness.

    #[test]
    fn cg_small_equivalent_and_faster() {
        let (s, p) = check(&cg(48));
        assert!(p < s, "cg: par {p} !< ser {s}");
    }

    #[test]
    fn ludcmp_small_equivalent() {
        let (s, p) = check(&ludcmp(32));
        assert!(p < s, "ludcmp: par {p} !< ser {s}");
    }

    #[test]
    fn lubksb_small_equivalent() {
        check(&lubksb(32));
    }

    #[test]
    fn sparse_small_equivalent_and_faster() {
        let (s, p) = check(&sparse(64));
        assert!(p < s);
    }

    #[test]
    fn gaussj_small_equivalent_and_faster() {
        let (s, p) = check(&gaussj(32));
        assert!(p < s, "gaussj: par {p} !< ser {s}");
    }

    #[test]
    fn svbksb_small_equivalent_and_faster() {
        let (s, p) = check(&svbksb(48));
        assert!(p < s);
    }

    #[test]
    fn svdcmp_small_equivalent() {
        check(&svdcmp(32));
    }

    #[test]
    fn mprove_small_equivalent() {
        check(&mprove(32));
    }

    #[test]
    fn toeplz_small_equivalent() {
        check(&toeplz(48));
    }

    #[test]
    fn tridag_small_equivalent() {
        check(&tridag(64));
    }
}
