package portdiscipline_test

import (
	"testing"

	"rme/internal/analysis/analysistest"
	"rme/internal/analysis/passes/portdiscipline"
)

func TestPortDiscipline(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), portdiscipline.Analyzer,
		"rme/internal/grlock", "rme/internal/core", "rme/outside")
}
