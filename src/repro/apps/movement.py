"""Movement-intent decoding: the three pipelines of paper Fig. 3b/6.

* Pipeline A — classify a preset movement (finger point, arm stretch, ...)
  from band-power features with a *decomposed* linear SVM.
* Pipeline B — decode continuous position/velocity with a Kalman filter,
  *centralised* on one node (each node ships 4 B of features per
  electrode).
* Pipeline C — decode continuous kinematics with a *decomposed* shallow
  ReLU network (1024 B of partial pre-activations per node).

The session generator synthesises raw electrode windows whose spike-band
power encodes the intended kinematics — the same observation model the
Kalman decoder assumes — so all three decoders run on the features a real
SBP PE would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.decoders.kalman import KalmanFilter, KalmanModel, fit_kalman
from repro.decoders.nn import ShallowNN, distributed_forward, train_shallow_nn
from repro.decoders.svm import LinearSVM, distributed_predict, train_linear_svm
from repro.errors import ConfigurationError
from repro.signal.features import spike_band_power_multichannel


@dataclass
class MovementSession:
    """A generated closed-loop session with ground truth.

    Attributes:
        states: ``(n_steps, 4)`` kinematics [px, py, vx, vy].
        features: ``(n_steps, n_nodes * electrodes_per_node)`` SBP features
            in node-major order (node 0's electrodes first).
        labels: ``(n_steps,)`` discrete movement class (direction octant;
            class 8 = idle) for pipeline A.
        n_nodes / electrodes_per_node: the feature layout.
    """

    states: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    n_nodes: int
    electrodes_per_node: int

    @property
    def n_steps(self) -> int:
        return self.states.shape[0]

    def node_features(self, step: int) -> list[np.ndarray]:
        """The per-node feature slices for one time step."""
        per = self.electrodes_per_node
        row = self.features[step]
        return [row[n * per : (n + 1) * per] for n in range(self.n_nodes)]

    def split(self, train_fraction: float = 0.6
              ) -> tuple["MovementSession", "MovementSession"]:
        """Chronological train/test split."""
        if not 0 < train_fraction < 1:
            raise ConfigurationError("train fraction must be in (0, 1)")
        cut = int(self.n_steps * train_fraction)
        return (
            MovementSession(self.states[:cut], self.features[:cut],
                            self.labels[:cut], self.n_nodes,
                            self.electrodes_per_node),
            MovementSession(self.states[cut:], self.features[cut:],
                            self.labels[cut:], self.n_nodes,
                            self.electrodes_per_node),
        )


def generate_movement_session(
    n_nodes: int = 4,
    electrodes_per_node: int = 24,
    n_steps: int = 400,
    window_samples: int = 150,
    tuning_noise: float = 0.05,
    seed: int = 0,
) -> MovementSession:
    """Generate one session of smooth 2-D reaching movements.

    Kinematics follow a smoothed random walk; each electrode has a linear
    tuning to the state (a random preferred direction), modulating the
    amplitude of its raw noise window, from which the SBP PE extracts the
    feature — so features encode kinematics the way motor cortex does.
    """
    if n_steps < 20:
        raise ConfigurationError("need at least 20 steps")
    rng = np.random.default_rng(seed)
    n_electrodes = n_nodes * electrodes_per_node

    # block-structured intents: every block_steps the subject switches to a
    # preset movement (8 directions + idle), and velocity smoothly tracks
    # the intended direction — the paper's "preset number of limb
    # movements".  Classes are drawn as shuffled 9-class rounds (a block
    # design) so chronological train/test splits both see every class.
    block_steps = 15
    directions = np.stack(
        [
            np.array([np.cos(a), np.sin(a)])
            for a in -np.pi + (np.arange(8) + 0.5) * (np.pi / 4)
        ]
        + [np.zeros(2)]
    )
    n_blocks = -(-n_steps // block_steps)
    class_sequence: list[int] = []
    while len(class_sequence) < n_blocks:
        class_sequence.extend(rng.permutation(9).tolist())
    labels = np.zeros(n_steps, dtype=int)
    states = np.zeros((n_steps, 4))
    current = class_sequence[0]
    for t in range(1, n_steps):
        if t % block_steps == 0:
            current = class_sequence[t // block_steps]
        labels[t] = current
        target_v = 1.5 * directions[current]
        states[t, 2:] = (
            0.80 * states[t - 1, 2:]
            + 0.20 * target_v
            + 0.05 * rng.standard_normal(2)
        )
        # a weak spring keeps the workspace bounded (centre-out reaching)
        states[t, :2] = 0.98 * states[t - 1, :2] + 0.05 * states[t - 1, 2:]
    labels[0] = labels[1]

    # per-electrode linear tuning: motor cortex tunes predominantly to
    # velocity/direction, so position components get a small weight —
    # also what keeps the feature distribution stationary across a session
    tuning = rng.normal(size=(n_electrodes, 4)) / np.sqrt(4)
    tuning[:, :2] *= 0.1
    baseline = rng.uniform(0.8, 1.2, size=n_electrodes)

    features = np.zeros((n_steps, n_electrodes))
    for t in range(n_steps):
        drive = baseline + np.maximum(tuning @ states[t], 0.0)
        raw = drive[:, None] * rng.standard_normal((n_electrodes, window_samples))
        raw += tuning_noise * rng.standard_normal(raw.shape)
        features[t] = spike_band_power_multichannel(raw)

    return MovementSession(states, features, labels, n_nodes, electrodes_per_node)


# --- Pipeline A: decomposed SVM classification -------------------------------


@dataclass
class MovementClassifierApp:
    """Pipeline A: preset-movement classification, hierarchically split."""

    svm: LinearSVM
    n_nodes: int
    electrodes_per_node: int

    @classmethod
    def train(cls, session: MovementSession, seed: int = 0
              ) -> "MovementClassifierApp":
        svm = train_linear_svm(
            session.features, session.labels, n_classes=9, seed=seed
        )
        return cls(svm, session.n_nodes, session.electrodes_per_node)

    def decode_step(self, session: MovementSession, step: int) -> int:
        """Distributed decision for one step (partials -> aggregate)."""
        return distributed_predict(self.svm, session.node_features(step))

    def accuracy(self, session: MovementSession) -> float:
        correct = sum(
            self.decode_step(session, t) == session.labels[t]
            for t in range(session.n_steps)
        )
        return correct / session.n_steps

    @property
    def wire_bytes_per_node(self) -> int:
        """4 B per class score per decision (paper: 4 B per node)."""
        return 4 * self.svm.n_classes


# --- Pipeline B: centralised Kalman filter ------------------------------------


@dataclass
class MovementKalmanApp:
    """Pipeline B: continuous decoding, centralised at one node."""

    model: KalmanModel
    n_nodes: int
    electrodes_per_node: int

    @classmethod
    def train(cls, session: MovementSession) -> "MovementKalmanApp":
        model = fit_kalman(session.states, session.features)
        return cls(model, session.n_nodes, session.electrodes_per_node)

    def decode(self, session: MovementSession) -> np.ndarray:
        """Run the filter over a session; returns decoded states."""
        kf = KalmanFilter(self.model)
        return kf.run(session.features)

    def velocity_correlation(self, session: MovementSession) -> float:
        """Mean Pearson r between decoded and true velocity components."""
        decoded = self.decode(session)
        rs = []
        for dim in (2, 3):
            true = session.states[:, dim]
            est = decoded[:, dim]
            if true.std() == 0 or est.std() == 0:
                continue
            rs.append(float(np.corrcoef(true, est)[0, 1]))
        return float(np.mean(rs)) if rs else 0.0

    @property
    def wire_bytes_per_node(self) -> int:
        """4 B per electrode feature shipped to the central node."""
        return 4 * self.electrodes_per_node


# --- Pipeline C: decomposed shallow NN ----------------------------------------


@dataclass
class MovementNNApp:
    """Pipeline C: continuous decoding with a decomposed shallow network."""

    nn: ShallowNN
    n_nodes: int
    electrodes_per_node: int

    @classmethod
    def train(cls, session: MovementSession, n_hidden: int = 32,
              epochs: int = 150, seed: int = 0) -> "MovementNNApp":
        nn = train_shallow_nn(
            session.features, session.states[:, 2:], n_hidden=n_hidden,
            epochs=epochs, seed=seed,
        )
        return cls(nn, session.n_nodes, session.electrodes_per_node)

    def decode_step(self, session: MovementSession, step: int) -> np.ndarray:
        """Distributed inference for one step."""
        return distributed_forward(self.nn, session.node_features(step))

    def velocity_correlation(self, session: MovementSession) -> float:
        decoded = np.stack(
            [self.decode_step(session, t) for t in range(session.n_steps)]
        )
        rs = []
        for dim in range(2):
            true = session.states[:, 2 + dim]
            est = decoded[:, dim]
            if true.std() == 0 or est.std() == 0:
                continue
            rs.append(float(np.corrcoef(true, est)[0, 1]))
        return float(np.mean(rs)) if rs else 0.0

    @property
    def wire_bytes_per_node(self) -> int:
        """One value per hidden unit (paper: 1024 B per node)."""
        return 4 * self.nn.n_hidden
