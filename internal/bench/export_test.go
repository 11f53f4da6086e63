package bench

import (
	"fmt"
	"io"
	"strings"

	"objinline/internal/pipeline"
)

// PrintInlinedFields dumps the decision details used in EXPERIMENTS.md.
func (e *Engine) PrintInlinedFields(w io.Writer, scale Scale) error {
	for _, p := range Programs {
		c, err := e.Compile(p, VariantAuto, scale, pipeline.Config{Mode: pipeline.ModeInline})
		if err != nil {
			return err
		}
		d := c.Optimize.Decision
		var names []string
		for _, k := range d.InlinedKeys() {
			names = append(names, k.String())
		}
		fmt.Fprintf(w, "%s: inlined %s\n", p.Name, strings.Join(names, ", "))
	}
	return nil
}
