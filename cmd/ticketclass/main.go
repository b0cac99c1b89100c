// Command ticketclass runs the §III.A ticket classification in isolation:
// it generates (or loads) a ticket population, trains the two-stage
// k-means classifier, and prints the confusion matrix and accuracy — the
// paper reports 87% for this step.
//
// With -input the trained model classifies an external ticket stream
// instead: tickets arrive as JSONL (one model.Ticket object per line, "-"
// = stdin) and one prediction per ticket leaves on stdout as JSONL — the
// scriptable companion to failscoped's online classification.
//
// Usage:
//
//	ticketclass [-seed N] [-scale small|paper] [-parallelism P] [-v]
//	ticketclass -scale small -trace-out run.json -debug-addr localhost:6060
//	ticketclass -scale small -input - < tickets.jsonl > predictions.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"failscope"
	"failscope/internal/clikit"
	"failscope/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ticketclass:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed     = flag.Uint64("seed", 0, "generator seed (0 keeps the calibrated default)")
		scale    = flag.String("scale", "paper", "dataset scale: paper or small")
		parallel = flag.Int("parallelism", 0, "worker count for generation and training (0 = all CPUs, 1 = sequential; results are identical)")
		input    = flag.String("input", "", "classify this JSONL ticket stream with the trained model instead of scoring the test split ('-' = stdin); predictions leave on stdout as JSONL")
	)
	ofl := clikit.AddFlags(flag.CommandLine)
	flag.Parse()

	var study failscope.Study
	switch *scale {
	case "paper":
		study = failscope.PaperStudy()
	case "small":
		study = failscope.SmallStudy()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *seed != 0 {
		study.Generator.Seed = *seed
	}
	study = study.WithParallelism(*parallel)

	o, stopDebug, err := ofl.Observer("ticketclass")
	if err != nil {
		return err
	}
	defer stopDebug()
	o.SetMeta(study.Generator.Seed, *parallel, "scale="+*scale)
	genSpan := o.Start("generate")
	study.Generator.Observer = o.Under(genSpan)
	field, err := failscope.Generate(study.Generator)
	genSpan.End()
	if err != nil {
		return err
	}
	if *input != "" {
		trainSpan := o.Start("train-classifier")
		study.Collect.Observer = o.Under(trainSpan)
		clf, err := failscope.TrainOnlineClassifier(field.Data.Tickets, study.Collect)
		trainSpan.End()
		if err != nil {
			return err
		}
		in := io.Reader(os.Stdin)
		if *input != "-" {
			f, err := os.Open(*input)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		predSpan := o.Start("predict-stream")
		n, err := classifyStream(clf, in, os.Stdout)
		predSpan.AddItems(n)
		predSpan.End()
		if err != nil {
			return err
		}
		return ofl.Emit("ticketclass", o, nil)
	}
	colSpan := o.Start("collect")
	study.Collect.Observer = o.Under(colSpan)
	col, err := failscope.Collect(field, study.Collect)
	colSpan.End()
	if err != nil {
		return err
	}
	if err := ofl.Emit("ticketclass", o, nil); err != nil {
		return err
	}
	c := col.Classifier
	fmt.Printf("tickets: %d (train %d, test %d)\n", c.TrainDocs+c.TestDocs, c.TrainDocs, c.TestDocs)
	fmt.Printf("overall accuracy:        %.1f%%\n", 100*c.Accuracy)
	fmt.Printf("crash-class accuracy:    %.1f%%  (paper: 87%%)\n", 100*c.CrashClassAccuracy)
	fmt.Printf("crash recall/precision:  %.1f%% / %.1f%%\n", 100*c.CrashRecall, 100*c.CrashPrecision)
	fmt.Println("\nconfusion matrix (rows = truth, cols = predicted; 0 = background):")
	fmt.Printf("%-12s", "")
	for _, col := range c.Confusion.Labels {
		fmt.Printf("%10s", labelName(col))
	}
	fmt.Println()
	for _, row := range c.Confusion.Labels {
		fmt.Printf("%-12s", labelName(row))
		for _, cl := range c.Confusion.Labels {
			fmt.Printf("%10d", c.Confusion.Counts[[2]int{row, cl}])
		}
		fmt.Println()
	}
	return nil
}

func labelName(l int) string {
	if l == 0 {
		return "background"
	}
	return model.FailureClass(l).String()
}

// prediction is one output line of -input mode.
type prediction struct {
	ID       string `json:"id,omitempty"`
	ServerID string `json:"serverID,omitempty"`
	IsCrash  bool   `json:"isCrash"`
	Label    int    `json:"label"`
	Class    string `json:"class"`
}

// classifyStream reads one model.Ticket JSON object per input line and
// emits the frozen model's prediction for each as a JSON line. Decode
// errors name the 1-based input line. Returns the number classified.
func classifyStream(clf *failscope.OnlineClassifier, r io.Reader, w io.Writer) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	n, line := 0, 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var t model.Ticket
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			return n, fmt.Errorf("input line %d: %w", line, err)
		}
		// The same text the collection pipeline classifies.
		label := clf.Predict(t.Description + " " + t.Resolution)
		if err := enc.Encode(prediction{
			ID:       t.ID,
			ServerID: string(t.ServerID),
			IsCrash:  label > 0,
			Label:    label,
			Class:    labelName(label),
		}); err != nil {
			return n, err
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("read input: %w", err)
	}
	return n, bw.Flush()
}
