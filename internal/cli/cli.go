// Package cli holds the helpers the command-line tools share.
package cli

import (
	"fmt"
	"os"

	"plim"
)

// WriteTrace exports the spans eng recorded (WithTrace) to path as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing; with verbose
// set it also renders the span tree to stderr. prog names the tool in the
// error reported when nothing was traced.
func WriteTrace(eng *plim.Engine, path string, verbose bool, prog string) error {
	tr := eng.TakeTrace()
	if tr == nil {
		return fmt.Errorf("%s: -trace: no spans recorded", prog)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if verbose {
		fmt.Fprintln(os.Stderr, "trace:")
		tr.Render(os.Stderr)
	}
	return nil
}
