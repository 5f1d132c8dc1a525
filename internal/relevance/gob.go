package relevance

import (
	"bytes"
	"encoding/gob"

	"wym/internal/nn"
)

// Gob support for the fitted scorers (core.System.Save/Load).

func init() {
	gob.Register(&NN{})
	gob.Register(Binary{})
	gob.Register(Cosine{})
}

type nnSnapshot struct {
	Net *nn.Net
	Dim int
}

// GobEncode implements gob.GobEncoder.
func (s *NN) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(nnSnapshot{Net: s.net, Dim: s.Dim()}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. Gob artifacts and scorer
// checkpoints both decode here, so NewNN's shape checks stand between
// any file and the kernel.
func (s *NN) GobDecode(data []byte) error {
	var snap nnSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return err
	}
	n, err := NewNN(snap.Net, snap.Dim)
	if err != nil {
		return err
	}
	*s = *n
	return nil
}
