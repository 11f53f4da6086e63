// Rectangles walks through the paper's running example (Figures 1–5):
// Points and Point3Ds flow into polymorphic Rectangles whose corners are
// read both directly and through unrelated List containers. The example
// prints which fields the optimizer inlined, the rejection reasons for the
// rest, and the analysis report showing the specialized contours of
// Figures 6–9.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"objinline"
)

const src = `
class Point {
  x_pos; y_pos;
  def init(x, y) { self.x_pos = x; self.y_pos = y; }
  def area(p) { return abs(self.x_pos - p.x_pos) * abs(self.y_pos - p.y_pos); }
  def absv() { return sqrt(self.x_pos*self.x_pos + self.y_pos*self.y_pos); }
}
class Point3D : Point {
  z_pos;
  def init(x, y, z) { self.x_pos = x; self.y_pos = y; self.z_pos = z; }
  def absv() { return sqrt(self.x_pos*self.x_pos + self.y_pos*self.y_pos + self.z_pos*self.z_pos); }
}
class Rectangle {
  lower_left; upper_right;
  def init(ll, ur) { self.lower_left = ll; self.upper_right = ur; }
  def area() { return self.lower_left.area(self.upper_right); }
}
class Parallelogram : Rectangle {
  upper_left;
  def init(ll, ur, ul) { self.lower_left = ll; self.upper_right = ur; self.upper_left = ul; }
}
class List {
  data; next;
  def init(d, n) { self.data = d; self.next = n; }
}
func head(l) { return l.data; }
func do_rectangle(ll, ur) {
  var r = new Rectangle(ll, ur);
  print(r.area());
  var l1 = new List(r.lower_left, nil);
  var l2 = new List(r.upper_right, nil);
  print(head(l1).absv());
  print(head(l2).absv());
}
func main() {
  var p1 = new Point(1.0, 2.0);
  var p2 = new Point(3.0, 4.0);
  do_rectangle(p1, p2);
  var p3 = new Point3D(1.0, 2.0, 3.0);
  var p4 = new Point3D(4.0, 5.0, 6.0);
  do_rectangle(p3, p4);
  var para = new Parallelogram(new Point(0.0, 0.0), new Point(2.0, 2.0), new Point(0.0, 2.0));
  print(para.area());
}
`

func main() {
	prog, err := objinline.Compile("rectangles.icc", src, objinline.Config{Mode: objinline.Inline})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== inlining decision ==")
	for _, f := range prog.InlinedFields() {
		fmt.Println("inlined:", f)
	}
	for f, why := range prog.RejectedFields() {
		fmt.Printf("kept as reference: %s (%s)\n", f, why)
	}

	fmt.Println("\n== program output (identical to the uninlined run) ==")
	if _, err := prog.Execute(context.Background(), objinline.RunOptions{Output: os.Stdout}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== optimizer report ==")
	fmt.Print(prog.Report())
}
